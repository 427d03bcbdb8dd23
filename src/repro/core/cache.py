"""Per-node LRU block caches for the serve path.

A production archive is read-dominated, and Zipf-skewed popularity means the
same hot files are fetched over and over by the same front-end gateways.
:class:`CacheManager` gives every *client* node (the flat id the retrieve
traffic terminates at) its own byte-budgeted LRU of encoded blocks:

* a **hit** -- every block the decode needs is resident in the client's
  cache -- skips the transfer charge entirely (the read never touches the
  fabric);
* a **miss** charges the fabric as before and then fills the client's cache
  with the fetched blocks, evicting least-recently-used entries to stay
  under the per-node byte budget.

In payload mode an LRU entry also holds the block's bytes and their stream
index; a lookup naming another index (rateless repair re-mints a block under
its old name) is a miss.

The cache is a *performance* layer, not a durability layer: capacity-mode
reads consult it only for chunks that are still recoverable from the
network, so cache-off behaviour is bit-identical to the pre-cache serve
path (the oracle ``tests/test_serving.py`` pins).

The manager also carries the serve-path source accounting: when a miss picks
the least-loaded live holder of a chunk's first placement, the choice is
recorded as a primary or replica read, which is where the hot-file
replication pay-off (``multicast/replication.py``) becomes visible.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.overlay.node import BlockBytes
from repro.overlay.validation import require_range


class NodeBlockCache:
    """One client node's LRU over encoded blocks (byte budget)."""

    __slots__ = ("capacity", "used", "evictions", "_entries")

    def __init__(self, capacity: int) -> None:
        self.capacity = int(require_range("capacity", capacity, 0, ends="()"))
        self.used = 0
        self.evictions = 0
        #: block name -> (size, stream index, bytes), least- to most-recently
        #: used; index and bytes are ``None`` in capacity mode.
        self._entries: "OrderedDict[str, tuple]" = OrderedDict()

    def __contains__(self, block_name: str) -> bool:
        return block_name in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def has_all(self, block_names: Iterable[str]) -> bool:
        """Whether every named block is resident (no LRU touch)."""
        return all(name in self._entries for name in block_names)

    def touch(self, block_names: Iterable[str]) -> None:
        """Mark the named blocks most-recently used."""
        for name in block_names:
            if name in self._entries:
                self._entries.move_to_end(name)

    def admit(self, block_name: str, size: int, index: Optional[int] = None,
              payload: Optional[BlockBytes] = None) -> List[str]:
        """Insert one block, evicting LRU entries to fit; returns evictions.

        ``index`` / ``payload`` (payload mode) are what a hit returns.  A block
        larger than the whole budget is never admitted (the return value is
        empty and the cache is unchanged).
        """
        size = int(size)
        if size > self.capacity:
            return []
        previous = self._entries.pop(block_name, None)
        if previous is not None:
            self.used -= previous[0]
        evicted: List[str] = []
        while self.used + size > self.capacity and self._entries:
            victim, (victim_size, _, _) = self._entries.popitem(last=False)
            self.used -= victim_size
            self.evictions += 1
            evicted.append(victim)
        self._entries[block_name] = (size, index, payload)
        self.used += size
        return evicted


class CacheManager:
    """Per-client-node block caches plus the serve-path hit/source accounting.

    ``capacity_bytes`` is the byte budget of *each* client cache (gateways
    are a small population, so the aggregate footprint stays modest).
    ``hit_latency_s`` is the simulated latency a fully-cached read costs in
    place of its transfer completions (0 by default: a local-memory hit).
    """

    def __init__(self, capacity_bytes: int, hit_latency_s: float = 0.0) -> None:
        self.capacity_bytes = int(require_range("capacity_bytes", capacity_bytes, 1))
        self.hit_latency_s = float(require_range("hit_latency_s", hit_latency_s, 0))
        self._caches: Dict[int, NodeBlockCache] = {}
        # Chunk-granular accounting (capacity-mode reads).
        self.chunk_hits = 0
        self.chunk_misses = 0
        # Block-granular accounting (payload-mode fetches).
        self.block_hits = 0
        self.block_misses = 0
        self.bytes_filled = 0
        self.bytes_served = 0
        # Miss-path source selection: which holder served the network read.
        self.primary_reads = 0
        self.replica_reads = 0

    # -- per-node caches ------------------------------------------------------
    def node_cache(self, client: int) -> NodeBlockCache:
        """The (lazily created) cache of one client node."""
        cache = self._caches.get(client)
        if cache is None:
            cache = NodeBlockCache(self.capacity_bytes)
            self._caches[client] = cache
        return cache

    # -- capacity mode: chunk-granular lookups --------------------------------
    def lookup_chunk(self, client: int, block_names: Sequence[str],
                     size: int = 0) -> bool:
        """Whether a decode needing ``block_names`` is fully cached at ``client``.

        Counts one chunk hit or miss; a hit also refreshes LRU recency and
        accounts ``size`` bytes served from cache.
        """
        cache = self._caches.get(client)
        if cache is not None and block_names and cache.has_all(block_names):
            cache.touch(block_names)
            self.chunk_hits += 1
            self.bytes_served += int(size)
            return True
        self.chunk_misses += 1
        return False

    def fill_chunk(self, client: int, entries: Sequence[Tuple[str, int]]) -> None:
        """Admit the fetched blocks of one chunk into ``client``'s cache."""
        cache = self.node_cache(client)
        for name, size in entries:
            cache.admit(name, size)
            self.bytes_filled += int(size)

    # -- payload mode: block-granular lookups ---------------------------------
    def lookup_block(self, client: int, block_name: str, index: int) -> Optional[BlockBytes]:
        """The cached bytes of stream block ``index`` under ``block_name`` (None on miss).

        An entry of another index (the block before a repair re-minted it) misses.
        """
        cache = self._caches.get(client)
        entry = cache._entries.get(block_name) if cache is not None else None
        if entry is not None and entry[1] == index:
            cache._entries.move_to_end(block_name)
            self.block_hits += 1
            self.bytes_served += len(entry[2])
            return entry[2]
        self.block_misses += 1
        return None

    def fill_block(self, client: int, block_name: str, size: int, index: int,
                   payload: BlockBytes) -> None:
        """Admit the fetched bytes of stream block ``index`` into ``client``'s cache."""
        cache = self.node_cache(client)
        cache.admit(block_name, size, index, payload)
        if block_name in cache:
            self.bytes_filled += int(size)

    # -- source accounting ----------------------------------------------------
    def note_source(self, primary: bool) -> None:
        """Record which holder class served a miss (primary vs replica)."""
        if primary:
            self.primary_reads += 1
        else:
            self.replica_reads += 1

    # -- aggregates -----------------------------------------------------------
    @property
    def evictions(self) -> int:
        """Total LRU evictions across every client cache."""
        return sum(cache.evictions for cache in self._caches.values())

    def hit_ratio(self) -> float:
        """Fraction of chunk+block lookups served from cache."""
        hits = self.chunk_hits + self.block_hits
        total = hits + self.chunk_misses + self.block_misses
        return hits / total if total else 0.0

    def replica_read_ratio(self) -> float:
        """Fraction of miss-path network reads served by a replica holder."""
        total = self.primary_reads + self.replica_reads
        return self.replica_reads / total if total else 0.0

    def summary(self) -> Dict[str, float]:
        """Flat accounting snapshot (benchmark rows, scenario tables)."""
        return {
            "cache_clients": float(len(self._caches)),
            "cache_hits": float(self.chunk_hits + self.block_hits),
            "cache_misses": float(self.chunk_misses + self.block_misses),
            "cache_hit_pct": 100.0 * self.hit_ratio(),
            "cache_evictions": float(self.evictions),
            "cache_filled_mb": self.bytes_filled / float(1 << 20),
            "cache_served_mb": self.bytes_served / float(1 << 20),
            "replica_reads": float(self.replica_reads),
            "primary_reads": float(self.primary_reads),
            "replica_read_pct": 100.0 * self.replica_read_ratio(),
        }
