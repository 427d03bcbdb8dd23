"""Columnar system-wide block ledger: the churn engine's source of truth.

The paper's dynamics experiments -- Figure 10 (file availability while
failing 1 000 of 10 000 nodes) and Table 3 (regeneration under 10-20 %
failures) -- hammer one question millions of times: *which blocks died with
this node, and which chunks/files can still be decoded?*  The seed answers it
by walking per-node ``stored_blocks`` dicts and, per availability sample, by
re-walking every placement of every chunk of every file.  At 10 000 nodes
that walk is what caps the experiments at toy scale.

:class:`BlockLedger` replaces the walks with system-wide parallel NumPy
columns, one row per stored *copy* of a block (primary or replica):

* ``owner`` (dense node slot), ``size``, ``file``/``chunk``/``placement``
  indices, ``alive`` and ``released`` flags, and a digest cache (``S20``,
  lazily batch-hashed) that exists only as far as a digest was written;
* per-chunk registries: decode threshold (``required``), count of placements
  with at least one live copy (``alive``), owning file;
* per-file registries: count of currently-undecodable chunks (``bad``), an
  active flag, and the O(1) system counters (``live_bytes``,
  ``stored_data_bytes``, ``unavailable_files``).

Column widths
-------------
Ids and counts are int32, byte counts int64.  Every id and count column holds
a registry index or a count of registry entries, so :meth:`BlockLedger._grow`
refuses (``OverflowError``) to grow a registry past :data:`_ID_LIMIT`
entries; arithmetic that can pass that range (a sort key of key x rows)
widens to int64 first.

======================  ==========  ====================================
column                  dtype       bytes
======================  ==========  ====================================
*per row*                           **29**
``_owner``              int32       4
``_size``               int64       8
``_file``               int32       4
``_chunk``              int32       4
``_placement``          int32       4
``_alive``              bool        1
``_released``           bool        1
``_kind``               int8        1
``_row_tenant``         int16       2
*digest cache, per      S20 + bool  21 (only up to the highest row a
hashed row*                         digest was written for)
*per placement*                     **12**
``_placement_chunk``    int32       4
``_placement_primary``  int32       4
``_placement_copies``   int32       4
*per chunk*                         **20**
``_chunk_*`` (five)     int32       4 each
*per file*                          **19**
``_file_size``          int64       8
``_file_bad``           int32       4
``_file_active``        bool        1
``_file_tenant``        int16       2
``_file_placement0``    int32       4
*per owner slot*                    **4**
``_slot_site``          int16       2
``_slot_rack``          int16       2
======================  ==========  ====================================

A CFS block is one row and one placement: 41 bytes of columns.  A store that
never repairs never hashes a name, so never allocates the digest cache.

"Blocks on a failed node" becomes one read of the owner index;
chunk survivability is maintained incrementally by one scalar count rule
(``_copy_step``) walked once per row a transition touches -- a single-node
failure touches about eight -- so a failure costs the rows it touches and an
availability sample is a single counter read.

The ledger stays exact no matter which code path kills a node because it
registers itself as a state listener on every :class:`OverlayNode` that holds
one of its rows: ``node.fail()`` / ``node.recover()`` / ``network.leave()``
notify it directly (the same pattern the array-backed placement engine uses
for O(1) usage aggregates).  A row can therefore die (node failure) and come
back (``recover(wipe=False)``): both directions are one rule,
``_set_alive(rows, alive)``, which moves every count by one step per row and
a file's bad counter wherever a placement or chunk crosses its threshold
(``_copy_step``, then ``_file_step``; a fresh copy and a chunk opened short
enter the same rule).
Rows that stop being *referenced* -- file deleted, node wiped or departed, or
a copy re-pointed at a regenerated or migrated one -- go through
``_release_rows`` (killed if still live, then ``released``) and never
resurrect, mirroring exactly which copies the seed's placement-walking
accounting would still see.

The ledger is the *system-wide* block store: besides the erasure-coded
placements of :class:`~repro.core.storage.StorageSystem` it carries the
whole-file replicas of the PAST baseline and the fixed-block stripes of the
CFS baseline as first-class row kinds (:data:`KIND_PRIMARY`,
:data:`KIND_REPLICA` for successor/leaf-set replicas, :data:`KIND_SALTED` for
copies stored under a salted retry name, :data:`KIND_META` for CAT copies).
Every scheme's copies live in the one file -> chunk -> placement -> row
hierarchy, and a chunk is decodable while ``required`` of its placements keep
a live copy.  The three availability rules of Figures 7-9 are that one rule
with different parameters: a PAST file is one chunk with one placement and
``required = 1`` (alive while one replica survives), a CFS file one chunk with
a placement per fixed block and ``required`` = the block count (alive while
every block has a live copy).  Registering a baseline file is a handful of
vectorised column writes, and ``is_file_available`` is an O(1) counter read
in every scheme.

Row indexes: a lazily sorted view of the columns
-------------------------------------------------
"Rows of this node / file / placement" are answered by three
:class:`_RowIndex` instances, one per key column (``owner``, ``file``,
``placement``).  An index owns no per-row state and nothing is written to it
when a row is appended.  It holds a *sorted prefix* -- one stable ``argsort``
of ``column[:built]`` flattened to a Python list plus per-key offsets, so a
query is one list slice -- and an *overflow* ``{key: [rows]}`` for the rows
appended since, read from the column's own tail the first time anyone asks.
The overflow is folded into the prefix by the next sort, which happens inside
a lookup once more than :data:`_OVERFLOW_LIMIT` rows sit past the prefix; an
ingest-only ledger never sorts at all.  Both halves list a key's rows in
*ascending row id*, which is registration order: the per-node recovery order
(and therefore every frozen golden) is defined by it.  The key columns are
write-once per row, so an index only goes stale when row ids move, i.e. at
compaction, which resets all three.  An index never forgets a row the column
still holds: every consumer filters ``released`` / ``alive`` itself.  A
chunk's placements are allocated contiguously and never added to, so that
"index" is two chunk columns (first placement, count).

Long-horizon churn soaks release rows continuously (departures, disk wipes,
repair re-points); :meth:`BlockLedger.compact` garbage-collects released rows
by gathering every column through the kept-row mask and resetting the three
indexes -- no per-row Python work, no per-key containers for the cyclic
collector to walk -- bounding ledger memory over simulated weeks.

Multi-tenancy: one ledger per overlay
-------------------------------------
A single ledger can carry *mixed* workloads -- the erasure-coded system plus
the PAST and CFS baselines -- as first-class **tenants**: every row and every
file carries a tenant tag, and file names are scoped per tenant (two tenants
may both store ``"movie"``).  A store holds the ledger and the tenant id
:meth:`BlockLedger.ensure_tenant` gave it, and passes ``tenant=`` on the
calls scoped per tenant (``register_file``, ``queue_whole_file``,
``register_striped_file``, ``remove_file``, ``file_index``); ``None`` is the
default tenant 0 every untagged store shares.  Liveness transitions, row
indexes and :meth:`BlockLedger.compact` are global: mixed PAST/CFS/ours
populations share one failure mask and one compaction pass.  The maintained
O(1) counters are the global ones; :meth:`BlockLedger.tenant_aggregates`
works one tenant's out of the row and file columns when asked.

PAST's whole-file stores additionally *buffer* their single-row registrations
(:meth:`BlockLedger.queue_whole_file`): the per-file scalar column writes are
deferred to the next flush, which registers the queued files one by one (the
writes leave the store loop; they are not batched).  Exactness is preserved
because every path that can read buffered state flushes the buffer first --
``file_index`` on a pending name, the per-node repair-row reads, the
aggregate accessors, compaction, the listener notifications of already
materialised rows -- and the flush *reconciles* each holder's actual
liveness (alive / holds the copy / still in the overlay), so churn that hit
a still-buffered holder lands as exactly the dead or released rows an eager
registration would have produced.  Aggregate counters are bumped eagerly at
queue time.  Any new code path that reads the raw row columns must call
``_flush_pending()`` (or go through one of the accessors above) first.

Where a block lives has this one home: a placement's primary is the owner-slot
column ``_placement_primary`` (slots survive :meth:`BlockLedger.compact`), its
replicas its unreleased :data:`KIND_REPLICA` rows in row order, and a file's
CAT copies its :data:`KIND_META` rows; ``StoredChunk.placements`` is a view of
them.

What a block is called is derived, never stored: every scheme names its
blocks after the file (ours ``naming.block_name(file, chunk_no, position + 1)``,
CFS ``f"{file}/block{position}"``, PAST the file name, a CAT
``naming.cat_name(file, attempt)``), so :meth:`BlockLedger.row_name` /
:meth:`BlockLedger.placement_name` read the file name and the chunk's naming
rule and keep only what the columns cannot give: the retry attempt of a
salted placement and of a salted CAT (sparse maps).  A re-created CAT copy is a
:data:`KIND_RESTORED` row of its file.  The nodes keep no list of their blocks
either: ``OverlayNode.stored_blocks`` is a view of the ledgers' rows, and a
placing call keeps a node from taking a second copy of a name by passing
the nodes with a copy of it on disk as ``OverlayNode.store_block``'s ``exclude``
(:meth:`BlockLedger.placement_disk_serials`, for a CAT copy
:meth:`BlockLedger.meta_disk_serials`), a namesake file's copies included:
another tenant's file of the same name, or what a deleted one left behind
(:meth:`BlockLedger.namesake_serials`).  ``OverlayNode.remove_block``
asks the ledger, which refuses a copy it does not record on that node.  A
copy a repair re-pointed while its holder kept the bytes is an *orphan*: on
the holder's disk (its ``used``, its ``stored_blocks``, the exclusion) until
the holder is wiped, departs or removes it, in a map keyed by owner slot and
placement that outlives :meth:`BlockLedger.compact`.
``tests/reference/dict_walk.py`` re-derives every answer from per-node dicts
recorded from the ``store_block`` / ``remove_block`` / ``release_block`` /
``recover`` calls themselves (``tests/reference/recorder.py``) --
``tests/test_churn_equivalence.py`` / ``tests/test_placement_equivalence.py``
audit the ledger against that walk and against the frozen seed outputs in
``tests/golden/``.
"""

from __future__ import annotations

import sys
from bisect import bisect_left
from operator import attrgetter
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core import naming
from repro.overlay.idmath import digest_bytes
from repro.overlay.validation import require_range

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (storage imports us)
    from repro.core.storage import StoredChunk, StoredFile
    from repro.overlay.network import OverlayNetwork
    from repro.overlay.node import OverlayNode

#: One placed block (or CAT object) as a store hands it over: its name, the
#: primary holder, its size and the neighbour-replica holders.
Placed = Tuple[str, "OverlayNode", int, Sequence["OverlayNode"]]

_S20 = "S20"
_INITIAL = 1024
_serial_of = attrgetter("serial")
#: The id and count dtype, and the most entries a registry may hold: every
#: id and count a column stores stays at or below it.
_ID = np.int32
_ID_LIMIT = int(np.iinfo(_ID).max)

#: Row kinds: the role a stored copy plays in its file's redundancy layout.
KIND_PRIMARY = 0   #: the copy a placement points at first
KIND_REPLICA = 1   #: a neighbour/successor replica of a primary copy
KIND_META = 2      #: CAT/metadata copy (not part of any chunk)
KIND_SALTED = 3    #: a primary stored under a salted retry name
KIND_RESTORED = 4  #: a re-created CAT copy: named like its file's CAT, outside the file's copies

#: Naming rules of the baselines' chunks, held where an erasure-coded chunk
#: holds its :class:`StoredChunk`: a PAST placement is named like its file, a
#: CFS placement ``f"{file}/block{position}"``.
_PAST_NAMES = "past"
_CFS_NAMES = "cfs"

#: Top bucket of the replication-level histogram: placements with this many
#: live copies or more share the last bin (far above any configured target).
REPLICATION_HIST_MAX = 8


#: Rows a :class:`_RowIndex` lets pile up past its sorted prefix before the
#: next lookup re-sorts.  Too small and lookups keep sorting; too large and the
#: overflow's one-list-per-key (the GC-tracked containers the index exists to
#: avoid) grows back.  One perfbench cycle at seed 11, best of 3, as (sorts,
#: seconds in catch-up, peak overflow lists, gen-2 GC seconds):
#:   limit    churn_soak                  repair_storm
#:      64    289  0.82  64      0.49     129  0.195  64      0.22
#:     512     40  0.15  478     0.44      18  0.043  485     0.19
#:   4 096      8  0.07  2 124   0.51       4  0.020  2 468   0.23
#:  32 768      8  0.06  2 124   0.53       0  0.031  10 501  0.19
#:     inf      0  0.35  45 001  1.00       0  0.028  10 501  0.20
#: 4 096 is the first row on the plateau that still bounds the list count.
_OVERFLOW_LIMIT = 4096

_ROW_COLUMNS = (
    "_owner", "_size", "_file", "_chunk", "_placement", "_alive", "_released", "_kind",
    "_row_tenant",
)
#: The digest cache: row-indexed, but only as long as the highest row a digest was written for.
_DIGEST_COLUMNS = ("_digest", "_digest_known")
_PLACEMENT_COLUMNS = ("_placement_chunk", "_placement_primary", "_placement_copies")
_CHUNK_COLUMNS = ("_chunk_required", "_chunk_alive", "_chunk_file", "_chunk_first", "_chunk_span")
_FILE_COLUMNS = ("_file_size", "_file_bad", "_file_active", "_file_tenant", "_file_placement0")
_SLOT_COLUMNS = ("_slot_site", "_slot_rack")

#: What ``tracemalloc`` sees of a row index's entries: a list slot, plus an
#: int object unless the value is one of CPython's cached small ints.  A row
#: id or offset is below 2**30, an int CPython 3.11+ allocates as a whole
#: 32-byte ``PyLongObject`` (3.10: its 28-byte ``sys.getsizeof``).
_SLOT_BYTES = 8
_INT_BYTES = 32 if sys.version_info >= (3, 11) else sys.getsizeof(1 << 20)
_SMALL_INTS = 257


def _grown(array: np.ndarray, needed: int, limit: int) -> np.ndarray:
    """Amortized-doubling growth for one column, to at most ``limit`` entries."""
    if needed <= len(array):
        return array
    new = np.zeros(min(max(needed, 2 * len(array)), limit), dtype=array.dtype)
    new[: len(array)] = array
    return new


class _RowIndex:
    """Row ids grouped by one int key column, ascending within a key.

    A view of the first ``row_count`` entries of the ledger column named
    ``column`` (read through the ledger at every catch-up: columns are
    reallocated as they grow): rows ``[0, built)`` are in the sorted prefix
    (``flat[offsets[k]:offsets[k + 1]]`` = rows of key ``k``), rows
    ``[built, seen)`` in the ``overflow`` dict, rows ``[seen, row_count)`` not
    read yet.  Keys below 0 mean "none" and are not indexed.
    """

    __slots__ = ("column", "built", "seen", "flat", "offsets", "overflow")

    def __init__(self, column: str) -> None:
        self.column = column
        self.reset()

    def reset(self) -> None:
        """Forget everything; the next lookup re-reads the column."""
        self.built = 0
        self.seen = 0
        self.flat: List[int] = []
        self.offsets: List[int] = []
        self.overflow: Dict[int, List[int]] = {}

    def lookup(self, ledger, key: int) -> List[int]:
        """The ledger's rows whose column equals ``key`` (>= 0), ascending; a fresh list."""
        if ledger.row_count > self.seen:
            self._catch_up(getattr(ledger, self.column), ledger.row_count)
        offsets = self.offsets
        rows = self.flat[offsets[key] : offsets[key + 1]] if key + 1 < len(offsets) else []
        extra = self.overflow.get(key)
        return rows + extra if extra else rows

    def _catch_up(self, column: np.ndarray, n: int) -> None:
        if n - self.built > _OVERFLOW_LIMIT:
            keys = column[:n]
            # (key, row) packed into one int64: unique values, so the default
            # introsort yields exactly the stable order, 3.5x faster than
            # kind="stable" on a shuffled column (owner, 75 k rows: 1.7 vs 5.9 ms).
            # Widened first: key x n passes the int32 range long before n does.
            order = np.argsort(keys.astype(np.int64) * n + np.arange(n))
            # ends[k] = rows with key < k (the -1 block sorts first and is cut).
            ends = np.cumsum(np.bincount(keys + 1))
            self.flat = order[ends[0] :].tolist()
            self.offsets = (ends - ends[0]).tolist()
            self.overflow = {}
            self.built = n
        else:
            overflow = self.overflow
            for row, key in enumerate(column[self.seen : n].tolist(), self.seen):
                rows = overflow.get(key)
                if rows is None:
                    overflow[key] = [row]
                else:
                    rows.append(row)
        self.seen = n

    def heap_bytes(self) -> int:
        """What ``tracemalloc`` sees of the entries held: list slots and their int objects.

        O(1) for the sorted prefix -- its row ids below :data:`_SMALL_INTS` are
        taken as cached (a row with key -1 among them makes this a slight
        overcount), its offsets are ascending -- plus a walk of the overflow,
        which holds at most :data:`_OVERFLOW_LIMIT` rows.
        """
        flat, offsets = len(self.flat), len(self.offsets)
        ints = flat - min(flat, _SMALL_INTS) + offsets - bisect_left(self.offsets, _SMALL_INTS)
        total = _SLOT_BYTES * (flat + offsets) + _INT_BYTES * ints
        overflow = self.overflow
        if overflow:
            small_rows = max(0, min(self.seen, _SMALL_INTS) - self.built)
            ints = self.seen - self.built - small_rows + sum(key >= _SMALL_INTS for key in overflow)
            total += (sys.getsizeof(overflow) + sum(map(sys.getsizeof, overflow.values()))
                      + _INT_BYTES * ints)
        return total


class BlockLedger:
    """System-wide columnar record of every stored block copy."""

    def __init__(self, network: "OverlayNetwork") -> None:
        self.network = network
        # -- row columns (one row per stored copy) ---------------------------
        self.row_count = 0
        self._owner = np.full(_INITIAL, -1, dtype=_ID)
        self._size = np.zeros(_INITIAL, dtype=np.int64)
        self._file = np.full(_INITIAL, -1, dtype=_ID)
        self._chunk = np.full(_INITIAL, -1, dtype=_ID)
        self._placement = np.full(_INITIAL, -1, dtype=_ID)
        self._alive = np.zeros(_INITIAL, dtype=bool)
        self._released = np.zeros(_INITIAL, dtype=bool)
        self._kind = np.zeros(_INITIAL, dtype=np.int8)
        self._row_tenant = np.zeros(_INITIAL, dtype=np.int16)
        #: The digest cache: a row's name digest once hashed.  It grows only when
        #: a digest is written (:meth:`_digest_room`); a row past its end is
        #: not known.
        self._digest = np.zeros(0, dtype=_S20)
        self._digest_known = np.zeros(0, dtype=bool)
        #: Lazily sorted views of the ``_owner`` / ``_file`` / ``_placement``
        #: columns (see the module docstring); nothing is written per row.
        self._by_owner = _RowIndex("_owner")
        self._by_file = _RowIndex("_file")
        self._by_placement = _RowIndex("_placement")
        # -- placement registry (one entry per block of a chunk) -------------
        self.placement_count = 0
        self._placement_chunk = np.full(_INITIAL, -1, dtype=_ID)
        #: Owner slot of the copy the placement points at first; with the
        #: block name and the replica rows, everything a placement is.
        self._placement_primary = np.full(_INITIAL, -1, dtype=_ID)
        self._placement_copies = np.zeros(_INITIAL, dtype=_ID)
        #: Retry attempt of each placement stored under a salted name (sparse).
        self._placement_salt: Dict[int, int] = {}
        # -- chunk registry ---------------------------------------------------
        self.chunk_count = 0
        self._chunk_required = np.zeros(_INITIAL, dtype=_ID)
        self._chunk_alive = np.zeros(_INITIAL, dtype=_ID)
        self._chunk_file = np.full(_INITIAL, -1, dtype=_ID)
        #: A chunk's placements are ``_chunk_first[c] + range(_chunk_span[c])``.
        self._chunk_first = np.zeros(_INITIAL, dtype=_ID)
        self._chunk_span = np.zeros(_INITIAL, dtype=_ID)
        #: The chunk's naming rule: the erasure-coded chunk's :class:`StoredChunk`
        #: (its ``chunk_no``; only the number once its file is deleted), or
        #: :data:`_PAST_NAMES` / :data:`_CFS_NAMES` for a baseline file's chunk
        #: (nothing to decode: the baselines only copy).
        self._chunk_objs: List[object] = []
        # -- file registry (names scoped per tenant) --------------------------
        self._file_index: Dict[Tuple[int, str], int] = {}
        self._file_names: List[str] = []
        #: ``sys.getsizeof`` of the file-name strings, summed as files come in.
        self._file_name_bytes = 0
        self._file_size = np.zeros(_INITIAL, dtype=np.int64)
        self._file_bad = np.zeros(_INITIAL, dtype=_ID)
        self._file_active = np.zeros(_INITIAL, dtype=bool)
        self._file_tenant = np.zeros(_INITIAL, dtype=np.int16)
        #: ``placement_count`` when the file was created: files and their
        #: placements are allocated in step, so file ``f`` owns placements
        #: ``[_file_placement0[f], _file_placement0[f + 1])``.
        self._file_placement0 = np.zeros(_INITIAL, dtype=_ID)
        self.file_count = 0
        #: Retry attempt of each file whose CAT went in under a salted name (sparse).
        self._cat_attempt: Dict[int, int] = {}
        #: Deleted files by name: what they leave on disk (restored CAT copies,
        #: orphans) is named like a new file of that name (sparse).
        self._removed_files: Dict[str, List[int]] = {}
        #: Names registered by more than one file (another tenant's, or after a
        #: deletion): the only names whose copies can collide on one node.
        self._shared_names: set = set()
        # -- tenants -----------------------------------------------------------
        #: Tenant id -> name; tenant 0 is the default namespace untagged
        #: stores share.
        self._tenant_ids: Dict[str, int] = {"default": 0}
        self.tenant_names: List[str] = ["default"]
        # -- buffered whole-file registrations (PAST's store loop) ------------
        #: Deferred whole-file registrations: (filename, size, stored name,
        #: holder nodes, the holders' wipe counts, salted, tenant).  Aggregates
        #: are bumped at queue time; slot creation, listeners and the column
        #: writes happen at flush, file by file.
        self._pending_whole: List[tuple] = []
        self._pending_names: set = set()
        # -- node slots -------------------------------------------------------
        #: Owner slot per node ``serial`` (-1 = holds no row yet).  Slots are
        #: dense in first-sight order and belong to a node *object*: a fresh
        #: machine that joins under a departed node's id gets its own.
        self._serial_slot: List[int] = []
        self._slot_nodes: List["OverlayNode"] = []
        #: Failure-domain columns alongside the owner column: the site and
        #: (globally unique) rack of each owner slot, so a correlated outage
        #: is one equality mask composed with ``_owner`` -- never N scalar
        #: failures.  Captured when a holder is first seen (:meth:`_owner_slots`);
        #: :meth:`refresh_domains` re-syncs after late assignment.
        self._slot_site = np.full(_INITIAL, -1, dtype=np.int16)
        self._slot_rack = np.full(_INITIAL, -1, dtype=np.int16)
        #: Copies released from their placement while their holder kept the
        #: bytes (:meth:`replace_copy`): ``{slot: {placement: size}}``.  Still on
        #: disk -- they count in the holder's ``used`` and keep it from taking
        #: the block again -- until the holder is wiped or departs.  Placements
        #: outlive :meth:`compact`, so these do too.  A repair leaves them on the
        #: failed node, which takes no copy while down, so only the slots whose
        #: node is up (``_live_orphans``, usually none) are read per placement.
        self._orphans: Dict[int, Dict[int, int]] = {}
        self._live_orphans: set = set()
        #: Replication-level histogram over the placements of every active
        #: file: ``hist[k]`` = placements currently holding ``k`` live
        #: copies (``k`` clipped to :data:`REPLICATION_HIST_MAX`).  Maintained
        #: incrementally at every copy-count transition, so erosion of the
        #: neighbour-replica level is an O(1) observable.
        self._replication_hist = np.zeros(REPLICATION_HIST_MAX + 1, dtype=np.int64)
        # -- O(1) aggregates --------------------------------------------------
        self.live_bytes = 0
        self.live_rows = 0
        self.stored_data_bytes = 0
        self.active_files = 0
        self.unavailable_files = 0

    # ----------------------------------------------------------------- tenants --
    @property
    def multi_tenant(self) -> bool:
        """Whether any tenant beyond the default 0 has been registered."""
        return len(self.tenant_names) > 1

    def ensure_tenant(self, name: str) -> int:
        """Create (or look up) the tenant id for ``name``."""
        tenant = self._tenant_ids.get(name)
        if tenant is None:
            tenant = self._tenant_ids[name] = len(self.tenant_names)
            self.tenant_names.append(name)
        return tenant

    # ------------------------------------------------------------- registration --
    def _owner_slots(self, holders: Sequence["OverlayNode"]) -> List[int]:
        """The owner slot of every holder: one C-level gather through the table.

        First-sight work (slot, site / rack, listener) runs once per node, not per row.
        """
        table = self._serial_slot
        # Nodes built or joined since the last registration (a no-op otherwise).
        table.extend([-1] * (self.network.serial_count - len(table)))
        slots = list(map(table.__getitem__, map(_serial_of, holders)))
        if -1 in slots:
            for index, node in enumerate(holders):
                slot = table[node.serial]
                if slot < 0:  # still: an earlier entry of ``holders`` may be this node
                    slot = len(self._slot_nodes)
                    if slot >= len(self._slot_site):
                        self._grow(_SLOT_COLUMNS, slot + 1)
                    table[node.serial] = slot
                    self._slot_nodes.append(node)
                    self._slot_site[slot] = node.site
                    self._slot_rack[slot] = node.rack
                    if self not in node._state_listeners:
                        node._state_listeners = node._state_listeners + (self,)
                slots[index] = slot
        return slots

    def _grow(self, columns: Tuple[str, ...], needed: int) -> None:
        """Grow one registry's columns together (callers check capacity first).

        Raises ``OverflowError``, growing nothing, when the registry would
        hold more than :data:`_ID_LIMIT` entries: its ids no longer fit the
        id dtype.  Callers grow before they count or write the new entries.
        """
        if needed > _ID_LIMIT:
            raise OverflowError(f"a ledger registry holds at most {_ID_LIMIT} entries, "
                                f"{needed} needed")
        for attr in columns:
            setattr(self, attr, _grown(getattr(self, attr), needed, _ID_LIMIT))

    def _digest_room(self, needed: int) -> None:
        """Grow the digest cache to cover rows ``[0, needed)`` (at most the row capacity)."""
        if needed > len(self._digest):
            limit = len(self._owner)
            self._digest = _grown(self._digest, max(needed, min(_INITIAL, limit)), limit)
            self._digest_known = _grown(self._digest_known, len(self._digest), limit)

    def _append_row(
        self,
        node: "OverlayNode",
        size: int,
        file_idx: int,
        chunk_idx: int,
        placement_idx: int,
        digest: Optional[bytes] = None,
        kind: int = KIND_PRIMARY,
        tenant: int = 0,
    ) -> int:
        row = self.row_count
        if row >= len(self._owner):
            self._grow(_ROW_COLUMNS, row + 1)
        table = self._serial_slot
        slot = table[node.serial] if node.serial < len(table) else -1
        self._owner[row] = slot if slot >= 0 else self._owner_slots((node,))[0]
        self._size[row] = size
        self._file[row] = file_idx
        self._chunk[row] = chunk_idx
        self._placement[row] = placement_idx
        self._alive[row] = True
        self._kind[row] = kind
        self._row_tenant[row] = tenant
        if digest is not None:
            self._digest_room(row + 1)
            self._digest[row] = digest
            self._digest_known[row] = True
        self.row_count = row + 1
        self.live_bytes += size
        self.live_rows += 1
        return row

    def _new_file_entry(self, name: str, size: int, tenant: int = 0, counted: bool = True) -> int:
        """Create one file registry entry (shared by every registration path).

        ``counted=False`` skips the aggregate bumps -- used when materialising
        buffered registrations whose counters were bumped at queue time.
        """
        key = (tenant, name)
        if key in self._file_index or key in self._pending_names:
            raise ValueError(f"file already registered: {name!r}")
        f = self.file_count
        if f >= len(self._file_size):
            self._grow(_FILE_COLUMNS, f + 1)
        self.file_count = f + 1
        if name in self._removed_files or any(
                (other, name) in self._file_index or (other, name) in self._pending_names
                for other in range(len(self.tenant_names)) if other != tenant):
            self._shared_names.add(name)
        self._file_index[key] = f
        self._file_names.append(name)
        self._file_name_bytes += sys.getsizeof(name)
        self._file_placement0[f] = self.placement_count
        self._file_size[f] = size
        self._file_bad[f] = 0
        self._file_active[f] = True
        self._file_tenant[f] = tenant
        if counted:
            self.active_files += 1
            self.stored_data_bytes += size
        return f

    def _open_chunk(
        self, f: int, required: int, span: int, copies: int | Sequence[int], rule: object,
    ) -> Tuple[int, int]:
        """Open one chunk of file ``f``: ``span`` placements, holding ``copies`` copies each.

        ``copies`` is one count for every placement or one per placement.
        The one way every scheme's chunks come in; the caller appends the
        rows.  Every placement opens with a live primary, so the chunk starts
        with all its placements alive and counts against its file when that
        is below ``required``.  ``rule`` names the placements: the
        erasure-coded chunk's :class:`StoredChunk`, or :data:`_PAST_NAMES` /
        :data:`_CFS_NAMES`.  Returns the chunk and its first placement.
        """
        c, p0 = self.chunk_count, self.placement_count
        p1 = p0 + span
        if c >= len(self._chunk_file):
            self._grow(_CHUNK_COLUMNS, c + 1)
        if p1 > len(self._placement_chunk):
            self._grow(_PLACEMENT_COLUMNS, p1)
        self.chunk_count, self.placement_count = c + 1, p1
        self._placement_chunk[p0:p1] = c
        self._placement_copies[p0:p1] = copies
        hist = self._replication_hist
        if isinstance(copies, int):  # one count for every placement: one bin moves
            hist[min(copies, REPLICATION_HIST_MAX)] += span
        else:
            for count in copies:
                hist[min(count, REPLICATION_HIST_MAX)] += 1
        self._chunk_required[c] = required
        self._chunk_alive[c] = span
        self._chunk_file[c] = f
        self._chunk_first[c] = p0
        self._chunk_span[c] = span
        self._chunk_objs.append(rule)
        if span < required:
            self._file_step(f, 1)
        return c, p0

    def _append_rows(
        self,
        f: int,
        c: int,
        placements: int | np.ndarray,
        holders: Sequence["OverlayNode"],
        size: int | np.ndarray,
        kind: int,
        tenant: int,
    ) -> int:
        """Append one live row per holder of chunk ``c`` as bulk column writes.

        ``placements`` and ``size`` are one value or one per row; every row
        gets ``kind`` (the caller patches the odd primary or salted block).
        The live aggregates are the caller's.  Returns the first row.
        """
        row0 = self.row_count
        row1 = row0 + len(holders)
        if row1 > len(self._owner):
            self._grow(_ROW_COLUMNS, row1)
        self._owner[row0:row1] = self._owner_slots(holders)
        self._size[row0:row1] = size
        self._file[row0:row1] = f
        self._chunk[row0:row1] = c
        self._placement[row0:row1] = placements
        self._alive[row0:row1] = True
        self._kind[row0:row1] = kind
        self._row_tenant[row0:row1] = tenant
        self.row_count = row1
        return row0

    def register_file(self, stored: "StoredFile", required_blocks: int, tenant: Optional[int],
                      chunks: Sequence[Tuple["StoredChunk", Sequence[Placed]]], cat: Placed) -> None:
        """Record every copy of a freshly (successfully) stored file.

        ``chunks`` pairs each placed data chunk with its blocks, in chunk
        order; block ``i`` of chunk ``n`` is named ``naming.block_name(file, n,
        i + 1)`` and the CAT ``naming.cat_name(file, attempt)``, so only a
        non-zero CAT attempt is kept.  Called once per successful store, after
        the placements are final, so the per-node row order is the
        chronological store order the seed recovery path iterates.
        """
        tenant = tenant or 0
        f = self._new_file_entry(stored.name, stored.size, tenant)
        stored.ledger_index = f
        for chunk, blocks in chunks:
            c, p = self._open_chunk(f, required_blocks, len(blocks),
                                    [1 + len(block[3]) for block in blocks], chunk)
            chunk.ledger, chunk.ledger_index = self, c
            for _, node, size, replicas in blocks:
                row = self._append_row(node, size, f, c, p, tenant=tenant)
                self._placement_primary[p] = self._owner[row]
                for replica in replicas:
                    self._append_row(replica, size, f, c, p, kind=KIND_REPLICA, tenant=tenant)
                p += 1
        name, node, size, replicas = cat
        if name != naming.cat_name(stored.name):
            attempt = int(name.rpartition(naming.CAT_SALT)[2])
            assert name == naming.cat_name(stored.name, attempt), name
            self._cat_attempt[f] = attempt
        for holder in (node, *replicas):
            self._append_row(holder, size, f, -1, -1, kind=KIND_META, tenant=tenant)

    def _salt_placements(self, p0: int, names: Sequence[str], salted: Sequence[int]) -> None:
        """Keep the retry attempt of each salted block ``names[i]`` (placement ``p0 + i``)."""
        for index in salted:
            self._placement_salt[p0 + index] = naming.salt_attempt(names[index])

    # ------------------------------------------------- baseline registration --
    def register_whole_file(
        self,
        filename: str,
        size: int,
        stored_name: str,
        holders: Sequence["OverlayNode"],
        salted: bool = False,
        tenant: Optional[int] = None,
    ) -> int:
        """Record a PAST-style whole-file store: one chunk with one placement, ``required = 1``.

        ``holders[0]`` is the primary (:data:`KIND_SALTED` when the store only
        succeeded under the salted retry name ``naming.salted_name(filename, attempt)``),
        the rest are leaf-set replica rows.  The file stays available while any
        copy survives.  Returns the ledger file index.
        """
        tenant = tenant or 0
        self._flush_pending()
        return self._register_whole_file_now(filename, size, stored_name, holders, salted, tenant)

    def queue_whole_file(
        self,
        filename: str,
        size: int,
        stored_name: str,
        holders: Sequence["OverlayNode"],
        salted: bool = False,
        tenant: Optional[int] = None,
    ) -> None:
        """Buffer a whole-file registration; its column writes happen at the next flush.

        Every ``holders`` entry must already hold ``stored_name`` (the way
        PAST's store loop places blocks before registering); the flush
        treats a copy whose holder was wiped or departed since as gone for good.

        PAST's store loop registers exactly one placement per file; the
        per-file scalar column writes are what shows up as ``pipeline_past``
        in BENCH_insertion.json.  Queuing defers them: the aggregate
        counters are bumped eagerly, and exactness is preserved because
        every path that can *read* buffered state flushes first (``file_index``
        when the name is pending, the per-node repair-row reads, compaction,
        the aggregate accessors) and the flush reconciles each holder's
        actual liveness -- a holder that failed, wiped or departed between
        the queue and the flush lands as a dead (and, where the copy is
        gone for good, released) row, exactly as the listener path would
        have recorded it.
        """
        tenant = tenant or 0
        if not holders:
            self.register_whole_file(filename, size, stored_name, holders, salted, tenant)
            return
        key = (tenant, filename)
        if key in self._file_index or key in self._pending_names:
            raise ValueError(f"file already registered: {filename!r}")
        copies = len(holders)
        self._pending_names.add(key)
        self._pending_whole.append((filename, size, stored_name, holders,
                                    [node.wipes for node in holders], salted, tenant))
        self.active_files += 1
        self.stored_data_bytes += size
        self.live_bytes += size * copies
        self.live_rows += copies

    def flush_registrations(self) -> None:
        """Materialise every buffered registration (idempotent)."""
        self._flush_pending()

    def _flush_pending(self) -> None:
        if not self._pending_whole:
            return
        batch, self._pending_whole = self._pending_whole, []
        self._pending_names.clear()
        for filename, size, stored_name, holders, wipes, salted, tenant in batch:
            self._register_whole_file_now(
                filename, size, stored_name, holders, salted, tenant, wipes=wipes
            )

    def _register_whole_file_now(
        self,
        filename: str,
        size: int,
        stored_name: str,
        holders: Sequence["OverlayNode"],
        salted: bool,
        tenant: int,
        wipes: Optional[Sequence[int]] = None,
    ) -> int:
        """One whole-file placement as bulk column writes (no scalar rows).

        ``wipes`` (the buffered-flush path: each holder's wipe count at queue
        time) additionally reconciles each holder's *current* liveness: a
        holder that failed keeps a dead but revivable row; one whose copy is
        gone for good (wiped disk since, graceful departure) gets its row
        killed and released -- the states the listener notifications would
        have produced had the registration been materialised eagerly.  The
        aggregates of a buffered file were counted at queue time.
        """
        counted = wipes is None
        f = self._new_file_entry(filename, size, tenant, counted=counted)
        b = len(holders)
        # A zero-copy store opens no placement: its chunk is unavailable from the start.
        c, p = self._open_chunk(f, 1, 1 if b else 0, b, _PAST_NAMES)
        if not b:
            return f
        if salted:
            self._salt_placements(p, [stored_name], [0])
        row0 = self._append_rows(f, c, p, holders, size, KIND_REPLICA, tenant)
        self._kind[row0] = KIND_SALTED if salted else KIND_PRIMARY
        self._placement_primary[p] = self._owner[row0]
        if counted:
            self.live_bytes += size * b
            self.live_rows += b
        else:
            network = self.network
            for row, node, wiped in zip(range(row0, row0 + b), holders, wipes):
                # Gone for good (never revives): wiped, or departed -- also when
                # a fresh machine has since joined under the departed id.
                gone = (node.wipes != wiped or node.node_id not in network
                        or network.node(node.node_id) is not node)
                if gone or not node.alive:  # a dead copy, released when gone
                    self._alive[row] = False
                    self._released[row] = gone
                    self.live_bytes -= size
                    self.live_rows -= 1
                    self._copy_step(p, -1)
        return f

    def register_striped_file(
        self,
        filename: str,
        size: int,
        names: Sequence[str],
        holders: Sequence["OverlayNode"],
        block_size: int,
        salted: Optional[Sequence[int]] = None,
        replicas: Optional[Sequence[Tuple[int, "OverlayNode"]]] = None,
        tenant: Optional[int] = None,
    ) -> int:
        """Record a CFS-style striped store in bulk: one chunk, a placement per fixed block.

        ``names``/``holders`` are the per-block stored names (already salted
        where a retry was needed) and primary holders, in block order; every
        block is ``block_size`` bytes except the last, which holds the
        remainder.  The chunk needs every block (``required`` = the block
        count).  ``salted`` lists the block indices stored under a retry
        name; ``replicas`` lists extra ``(block_index, node)`` successor
        copies, in block order.  Block ``i`` is named ``f"{filename}/block{i}"``,
        so of ``names`` only the salted blocks' retry attempts are kept.  The
        whole registration is a handful of vectorised column writes, which is
        what keeps the ledger out of the store loop's way -- the columnar
        bookkeeping replaces the per-block tuple lists the seed path carries.
        Returns the ledger file index.
        """
        tenant = tenant or 0
        f = self._new_file_entry(filename, size, tenant)
        b = len(names)
        copies = 1
        if replicas:
            extra = np.asarray([index for index, _ in replicas], dtype=np.int64)
            copies = 1 + np.bincount(extra, minlength=b)
        c, p0 = self._open_chunk(f, b, b, copies, _CFS_NAMES)
        row0 = self._append_rows(
            f, c, np.arange(p0, p0 + b), holders, block_size, KIND_PRIMARY, tenant)
        self._placement_primary[p0 : p0 + b] = self._owner[row0 : row0 + b]
        if b:
            # Full blocks plus the remainder: the sizes sum to ``size``.
            self._size[row0 + b - 1] = size - (b - 1) * block_size
            self.live_bytes += size
        if salted:
            self._kind[[row0 + index for index in salted]] = KIND_SALTED
            self._salt_placements(p0, names, salted)
        self.live_rows += b
        if replicas:
            sizes = self._size[row0 + extra]
            self._append_rows(f, c, p0 + extra, [node for _, node in replicas], sizes,
                              KIND_REPLICA, tenant)
            self.live_bytes += int(sizes.sum())
            self.live_rows += len(replicas)
        return f

    def remove_file(self, name: str, tenant: Optional[int] = None) -> bool:
        """Release every row of a deleted file and drop it from the accounting."""
        if self._pending_whole:
            self._flush_pending()
        f = self._file_index.pop((tenant or 0, name), None)
        if f is None:
            return False
        self._removed_files.setdefault(name, []).append(f)
        if self._file_active[f]:
            self._file_active[f] = False
            self.active_files -= 1
            self.stored_data_bytes -= int(self._file_size[f])
            if self._file_bad[f] > 0:
                self.unavailable_files -= 1
        # A restored CAT copy outlives the file (it was never one of its copies).
        rows = np.asarray(self._by_file.lookup(self, f), dtype=np.int64)
        self._release_rows(rows[self._kind[rows] != KIND_RESTORED])
        # Retire the file's placements from the replication histogram: every
        # row is now released, so no transition can touch them again.  Read
        # from the registry, not the rows -- a placement whose copies were all
        # wiped and compacted away has no row left to find it through.
        placements = self.file_placements(f)
        buckets = np.minimum(self._placement_copies[placements.start : placements.stop],
                             REPLICATION_HIST_MAX)
        self._replication_hist -= np.bincount(buckets, minlength=REPLICATION_HIST_MAX + 1)
        if placements:
            # An erasure-coded chunk's naming rule shrinks to its number: what
            # the file left on disk keeps its names, the StoredChunk goes.
            rules = self._chunk_objs
            for c in range(int(self._placement_chunk[placements.start]),
                           int(self._placement_chunk[placements.stop - 1]) + 1):
                if not isinstance(rules[c], str):
                    rules[c] = rules[c].chunk_no
        return True

    # ------------------------------------------------------ liveness transitions --
    def _copy_step(self, placement: int, step: int) -> None:
        """The one count-transition rule: ``placement`` gains (``step`` +1) or loses (-1) a live copy.

        The placement's copy count moves, and with it one placement between two
        histogram bins; a count that crosses zero moves its chunk's live-placement
        count, and a chunk that crosses its decode threshold moves its file's bad
        counter by ``-step`` (:meth:`_file_step`).
        """
        copies = self._placement_copies
        before = int(copies[placement])
        after = before + step
        copies[placement] = after
        hist = self._replication_hist
        hist[min(before, REPLICATION_HIST_MAX)] -= 1
        hist[min(after, REPLICATION_HIST_MAX)] += 1
        if before and after:
            return
        c = int(self._placement_chunk[placement])
        alive = self._chunk_alive
        was = int(alive[c])
        alive[c] = was + step
        required = int(self._chunk_required[c])
        if (was >= required) != (was + step >= required):
            self._file_step(int(self._chunk_file[c]), -step)

    def _file_step(self, f: int, step: int) -> None:
        """Move file ``f``'s bad-chunk counter by ``step``; an active file that
        crosses zero moves ``unavailable_files`` with it."""
        bad = self._file_bad
        before = int(bad[f])
        bad[f] = before + step
        if not (before and before + step) and self._file_active[f]:
            self.unavailable_files += step

    def _set_alive(self, rows: np.ndarray, alive: bool) -> None:
        """Flip ``rows`` (each currently the other way) to ``alive`` and propagate.

        Two vectorised column writes -- the ``alive`` flags, then the live byte
        and row counters -- and then :meth:`_copy_step` once per row of a
        placement, with ``step`` +1 (revive) or -1 (kill).  Every row moves its
        placement by one, so a batch holding two copies of one placement (a
        primary and its replica in one outage) moves that count twice; the
        counts end where one batched transition would leave them.  Meta rows
        belong to no placement and stop at the row counters.
        """
        if rows.size == 0:
            return
        step = 1 if alive else -1
        self._alive[rows] = alive
        self.live_bytes += step * int(self._size[rows].sum())
        self.live_rows += step * int(rows.size)
        copy_step = self._copy_step
        for placement in self._placement[rows].tolist():
            if placement >= 0:
                copy_step(placement, step)

    def _release_rows(self, rows: np.ndarray) -> None:
        """Take ``rows`` out of the system for good: kill the live ones, release all."""
        self._set_alive(rows[self._alive[rows]], False)
        self._released[rows] = True

    # -- node state listener hooks (wired through OverlayNode/OverlayNetwork) ----
    def _note_failed(self, node: "OverlayNode") -> None:
        rows = np.asarray(self.recovery_rows(node), dtype=np.int64)
        self._set_alive(rows[self._alive[rows]], False)
        if self._live_orphans:
            self._live_orphans.discard(self._slot_of(node))

    def _note_recovered(self, node: "OverlayNode", wipe: bool, revived: bool) -> None:
        rows = np.asarray(self.recovery_rows(node), dtype=np.int64)
        if wipe:
            # The disk came back empty: every copy it held is gone for good.
            self._release_rows(rows)
            self._drop_orphans(node)
        else:
            if revived:
                self._set_alive(rows[~self._alive[rows]], True)
            if self._slot_of(node) in self._orphans:
                self._live_orphans.add(self._slot_of(node))

    def _note_departed(self, node: "OverlayNode") -> None:
        """A graceful leave takes the copies out of the system permanently."""
        self._release_rows(np.asarray(self.recovery_rows(node), dtype=np.int64))
        self._drop_orphans(node)

    def _note_removed(self, node: "OverlayNode", name: str) -> bool:
        """Whether ``node`` held a copy of ``name`` in this ledger, which its disk just dropped.

        An orphan of that name is forgotten; an unreleased row of it is released
        (its bytes are gone).  ``False``, changing nothing, when it holds neither.
        """
        slot = self._slot_of(node)
        if slot < 0:
            return False
        held = self._orphans.get(slot)
        placement = next((p for p in held if self.placement_name(p) == name), None) if held else None
        if placement is not None:
            del held[placement]
            if not held:
                self._drop_orphans(node)
            return True
        rows = self.recovery_rows(node)
        if not rows:
            return False
        self.ensure_digests(rows)  # match by digest: no name is derived per row
        hits = np.flatnonzero(self._digest[rows] == naming.name_digests([name])[0])
        if not hits.size:
            return False
        self._release_rows(np.asarray([rows[hits[0]]], dtype=np.int64))
        return True

    def _drop_orphans(self, node: "OverlayNode") -> None:
        """Forget the released copies still on ``node``'s disk: the disk is gone."""
        slot = self._slot_of(node)
        if self._orphans.pop(slot, None) is not None:
            self._live_orphans.discard(slot)

    # --------------------------------------------------------- failure domains --
    def refresh_domains(self) -> None:
        """Re-sync the per-slot domain columns from the tracked nodes.

        Domains are captured when a holder is first seen; call this after
        assigning ``node.site`` / ``node.rack`` to nodes the ledger already
        tracks (e.g. domains laid over a pre-built population).
        """
        count = len(self._slot_nodes)
        if count:
            self._slot_site[:count] = [node.site for node in self._slot_nodes]
            self._slot_rack[:count] = [node.rack for node in self._slot_nodes]

    def fail_domain(self, site: Optional[int] = None, rack: Optional[int] = None) -> int:
        """Kill every live row owned by one failure domain, as a single mask.

        This is the correlated-outage primitive: the site/rack equality test
        over the int16 slot columns composes with the owner column into one
        row mask, and the whole outage is a single :meth:`_set_alive` call --
        two vectorised column writes and the count rule once per killed row,
        never N per-node failures with their row-index reads.  The caller
        remains responsible for the overlay-side transitions (``node.fail()``,
        DHT removal); by the time those run, this ledger holds no live rows
        for the domain, so the per-node listener sweeps are no-ops.  Returns
        the number of rows
        killed.  End-state equivalence with the scalar per-node sequence is
        oracle-tested in ``tests/test_faults.py``.
        """
        if site is None and rack is None:
            raise ValueError("specify a site and/or a rack")
        if self._pending_whole:
            self._flush_pending()
        count = len(self._slot_nodes)
        if not count:
            return 0
        slot_mask = np.ones(count, dtype=bool)
        if site is not None:
            slot_mask &= self._slot_site[:count] == np.int16(site)
        if rack is not None:
            slot_mask &= self._slot_rack[:count] == np.int16(rack)
        n = self.row_count
        rows = np.flatnonzero(slot_mask[self._owner[:n]] & self._alive[:n])
        self._set_alive(rows, False)
        return int(rows.size)

    def replication_histogram(self) -> np.ndarray:
        """Live-copy histogram of the chunk placements, O(1) (a copy).

        ``hist[k]`` is the number of active placements with exactly ``k`` live
        copies; the last bin aggregates ``>= REPLICATION_HIST_MAX``.  With a
        target of ``block_replication`` copies, erosion shows up as mass
        migrating below index ``block_replication``.
        """
        return self._replication_hist.copy()

    def placements_below(self, target: int) -> int:
        """Active placements holding fewer than ``target`` live copies, O(1)."""
        return int(self._replication_hist[: min(target, REPLICATION_HIST_MAX + 1)].sum())

    def placement_live_copies(self, placement_idx: int) -> int:
        """Live copies currently backing one placement, O(1)."""
        return int(self._placement_copies[placement_idx])

    # --------------------------------------------------------------- repair API --
    def recovery_rows(self, node: "OverlayNode") -> List[int]:
        """The node's unreleased rows, in insertion order: the record repair reads.

        One read of the owner index (O(rows of that node), never a scan of
        the owner column); released rows (deleted files, superseded
        primaries) are excluded, so a copy still on a dead node's disk without
        a row here (an orphan) was already repaired or deleted.  The liveness
        listeners above sweep these rows.
        """
        if self._pending_whole:
            self._flush_pending()
        table = self._serial_slot
        slot = table[node.serial] if node.serial < len(table) else -1
        if slot < 0:
            return []
        released = self._released
        return [row for row in self._by_owner.lookup(self, slot) if not released[row]]

    def _slot_of(self, node: "OverlayNode") -> int:
        """The node's owner slot, or -1 when it never held a row of this ledger."""
        table = self._serial_slot
        return table[node.serial] if node.serial < len(table) else -1

    def ensure_digests(self, rows: Sequence[int], names: Optional[Sequence[str]] = None) -> None:
        """Batch-hash the names of ``rows`` into the digest column (idempotent).

        ``names``: the rows' :meth:`row_names`, when the caller derived them already.
        """
        known = self._digest_known
        cached = len(known)
        missing = [index for index, row in enumerate(rows) if row >= cached or not known[row]]
        if missing:
            rows = [rows[index] for index in missing]
            names = (self.row_names(rows) if names is None
                     else [names[index] for index in missing])
            self._digest_room(max(rows) + 1)
            self._digest[rows] = naming.name_digests(names)
            self._digest_known[rows] = True

    def row_name(self, row: int) -> str:
        """The name the row's copy is stored under, derived from its placement or file."""
        placement = int(self._placement[row])
        if placement >= 0:
            return self.placement_name(placement)
        return self._derived_name(int(self._file[row]), placement, -1, 0)

    def row_names(self, rows: Sequence[int]) -> List[str]:
        """:meth:`row_name` of many rows, the column reads done in bulk."""
        return [record[0] for record in self.row_records(rows)]

    def row_records(self, rows: Sequence[int]) -> List[tuple]:
        """``(name, file_idx, chunk_idx, placement_idx, size, kind, tenant)`` of each row.

        What repair reads of a row, the column reads done in bulk (a CAT copy's
        chunk and placement are -1).
        """
        rows = np.asarray(rows, dtype=np.int64)
        chunks = self._chunk[rows]
        placements = self._placement[rows]
        positions = placements - self._chunk_first[chunks]  # a CAT copy's reads no chunk
        files, chunks, placements = (self._file[rows].tolist(), chunks.tolist(),
                                     placements.tolist())
        derive = self._derived_name
        return [(derive(f, p, c, position), f, c, p, size, kind, tenant)
                for f, c, p, position, size, kind, tenant in zip(
                    files, chunks, placements, positions.tolist(), self._size[rows].tolist(),
                    self._kind[rows].tolist(), self._row_tenant[rows].tolist())]

    def placement_name(self, placement_idx: int) -> str:
        """The name of the placement's block: its scheme's rule, then any retry salt."""
        c = int(self._placement_chunk[placement_idx])
        return self._derived_name(int(self._chunk_file[c]), placement_idx, c,
                                  placement_idx - int(self._chunk_first[c]))

    def _derived_name(self, f: int, placement: int, chunk: int, position: int) -> str:
        """The name of a copy of file ``f``: a CAT copy (``placement < 0``), or block
        ``position`` of ``chunk``, named by the chunk's rule and salted by its retry."""
        filename = self._file_names[f]
        if placement < 0:
            return naming.cat_name(filename, self._cat_attempt.get(f, 0))
        rule = self._chunk_objs[chunk]
        if rule is _PAST_NAMES:
            name = filename
        elif rule is _CFS_NAMES:
            name = naming.stripe_name(filename, position)
        else:  # a StoredChunk, or a deleted file's chunk number
            name = naming.ecb_name(filename, rule if isinstance(rule, int) else rule.chunk_no,
                                   position + 1)
        salt = self._placement_salt.get(placement)
        return name if salt is None else naming.salted_name(name, salt)

    def placement_disk_serials(self, placement_idx: int) -> set:
        """Serials of the nodes with a copy of the placement's block on disk.

        The owners of its unreleased rows (up or down), the up nodes holding
        an orphan of it (a down node takes no copy anyway) and the holders of
        a namesake file's copy of the same name (:meth:`namesake_serials`): a
        node never takes a second copy of one name, so every placement step
        excludes these.
        """
        serials = self._copy_serials(placement_idx)
        if self._shared_names:
            f = int(self._chunk_file[self._placement_chunk[placement_idx]])
            if self._file_names[f] in self._shared_names:
                serials |= self.namesake_serials(self._file_names[f], f).get(
                    self.placement_name(placement_idx), set())
        return serials

    def _copy_serials(self, placement_idx: int) -> set:
        """The placement's own part of :meth:`placement_disk_serials`: rows and live orphans."""
        released, owner, slot_nodes = self._released, self._owner, self._slot_nodes
        serials = {slot_nodes[owner[row]].serial
                   for row in self._by_placement.lookup(self, placement_idx) if not released[row]}
        for slot in self._live_orphans:
            if placement_idx in self._orphans[slot]:
                serials.add(slot_nodes[slot].serial)
        return serials

    def meta_disk_serials(self, row: int) -> set:
        """Serials of the nodes with a copy of the CAT the meta ``row`` copies on disk.

        The unreleased CAT and restored-CAT rows of its file (one name), and
        the holders of a namesake file's CAT copy of that name.
        """
        f = int(self._file[row])
        serials = self._meta_serials(f)
        if self._shared_names and self._file_names[f] in self._shared_names:
            serials |= self.namesake_serials(self._file_names[f], f).get(self.row_name(row), set())
        return serials

    def _meta_serials(self, f: int) -> set:
        """Owners of file ``f``'s unreleased CAT and restored-CAT rows."""
        released, owner, placement, slot_nodes = (self._released, self._owner, self._placement,
                                                  self._slot_nodes)
        return {slot_nodes[owner[row]].serial for row in self._by_file.lookup(self, f)
                if placement[row] < 0 and not released[row]}

    def namesake_serials(self, filename: str, skip: int = -1) -> Dict[str, set]:
        """``{name: serials}`` of the on-disk copies of every file called ``filename`` but ``skip``.

        Every scheme derives its block names from the file name, so a file
        shares names with the other tenants' files of its name and with what
        deleted files of its name left on disk (restored CAT copies, orphans).
        A fresh store must not place a block on a node holding a copy of its
        name; ``{}`` (the common case) when no such file exists.
        """
        files = [f for f in self._removed_files.get(filename, ()) if f != skip]
        for tenant in range(len(self.tenant_names)):
            f = self.file_index(filename, tenant)
            if f is not None and f != skip:
                files.append(f)
        held: Dict[str, set] = {}
        for f in files:
            for placement in self.file_placements(f):
                held.setdefault(self.placement_name(placement), set()).update(
                    self._copy_serials(placement))
            cat = next((row for row in self._by_file.lookup(self, f) if self._placement[row] < 0),
                       None)
            if cat is not None:  # a file's CAT copies and its restored ones share one name
                held.setdefault(self.row_name(cat), set()).update(self._meta_serials(f))
        return held

    def disk_copies(self, node: "OverlayNode") -> Dict[str, int]:
        """``{name: size}`` of every copy on ``node``'s disk in this ledger.

        Its unreleased rows, then its orphans: what ``OverlayNode.stored_blocks``
        lists.
        """
        rows = self.recovery_rows(node)
        copies = dict(zip(self.row_names(rows), self._size[rows].tolist()))
        for placement, size in self._orphans.get(self._slot_of(node), {}).items():
            copies[self.placement_name(placement)] = size
        return copies

    def disk_sizes(self, node: "OverlayNode") -> List[int]:
        """The sizes of :meth:`disk_copies`, without deriving a name."""
        sizes = self._size[self.recovery_rows(node)].tolist()
        sizes.extend(self._orphans.get(self._slot_of(node), {}).values())
        return sizes

    def row_key(self, row: int) -> int:
        """The 160-bit DHT key of the row's block name (requires ensure_digests)."""
        return int.from_bytes(self.row_digest(row), "big")

    def row_digest(self, row: int) -> bytes:
        return digest_bytes(self._digest[row])

    def row_fields(self, row: int) -> tuple:
        """(file_idx, chunk_idx, placement_idx, size, kind) of one row."""
        return (
            int(self._file[row]),
            int(self._chunk[row]),
            int(self._placement[row]),
            int(self._size[row]),
            int(self._kind[row]),
        )

    def chunk_object(self, chunk_idx: int) -> Optional["StoredChunk"]:
        """The erasure-coded chunk's :class:`StoredChunk`; ``None`` for a PAST or CFS
        chunk, or a deleted file's."""
        rule = self._chunk_objs[chunk_idx]
        return None if isinstance(rule, (str, int)) else rule

    def chunk_recoverable(self, chunk_idx: int) -> bool:
        """Whether the chunk still has enough live blocks to decode, in O(1)."""
        return bool(self._chunk_alive[chunk_idx] >= self._chunk_required[chunk_idx])

    def chunk_live_blocks(self, chunk_idx: int) -> int:
        """Distinct placements of the chunk with a surviving copy, O(1).

        The degraded-read classifier compares this against the chunk's total
        placements: fewer live than total (but at least ``required``) means
        the read decodes from a k-of-n subset.
        """
        return int(self._chunk_alive[chunk_idx])

    def placement_position(self, placement_idx: int) -> int:
        """The placement's index within its chunk's ``placements`` list."""
        return placement_idx - int(self._chunk_first[self._placement_chunk[placement_idx]])

    def placement_for(self, chunk_idx: int, position: int) -> int:
        """The ledger placement index for position ``position`` of a chunk."""
        return int(self._chunk_first[chunk_idx]) + position

    def chunk_placement_indexes(self, chunk_idx: int) -> Sequence[int]:
        """The ledger placement indexes of a chunk, in placement order."""
        first = int(self._chunk_first[chunk_idx])
        return range(first, first + int(self._chunk_span[chunk_idx]))

    def placement_primary(self, placement_idx: int) -> int:
        """The node id the placement points at first (its primary holder), O(1)."""
        return self._slot_nodes[self._placement_primary[placement_idx]].node_id

    def placement_nodes(self, placement_idx: int) -> List["OverlayNode"]:
        """The placement's primary, then its unreleased replica rows' owners in row order.

        A holder may be down (its row dead but revivable).
        """
        released, kind, owner, slot_nodes = self._released, self._kind, self._owner, self._slot_nodes
        return [slot_nodes[self._placement_primary[placement_idx]]] + [
            slot_nodes[owner[row]]
            for row in self._by_placement.lookup(self, placement_idx)
            if kind[row] == KIND_REPLICA and not released[row]
        ]

    def placement_holders(self, placement_idx: int) -> List[int]:
        """:meth:`placement_nodes` as node ids."""
        return [node.node_id for node in self.placement_nodes(placement_idx)]

    def live_copy_owner(self, placement_idx: int) -> Optional["OverlayNode"]:
        """A node holding a live copy of the placement (None if all are dead).

        Used by the bandwidth-aware recovery manager to pick the surviving
        blocks a regeneration reads from; the first live row in registration
        order keeps the choice deterministic.
        """
        alive = self._alive
        for row in self._by_placement.lookup(self, placement_idx):
            if alive[row]:
                return self._slot_nodes[self._owner[row]]
        return None

    def file_name(self, file_idx: int) -> str:
        return self._file_names[file_idx]

    def file_size(self, file_idx: int) -> int:
        """The size the file was stored with, in bytes."""
        return int(self._file_size[file_idx])

    def file_placements(self, file_idx: int) -> range:
        """The ledger placement indexes of a file: its chunks' placements, in chunk order.

        Files and their placements are allocated in step, so this is read from
        the registry and survives :meth:`compact` even where no row is left.
        """
        end = (int(self._file_placement0[file_idx + 1]) if file_idx + 1 < self.file_count
               else self.placement_count)
        return range(int(self._file_placement0[file_idx]), end)

    def replace_copy(
        self,
        row: int,
        new_node: "OverlayNode",
        size: int,
        digest: Optional[bytes],
        kind: int,
    ) -> int:
        """Re-point the copy ``row`` of a placement at a regenerated or re-replicated block.

        Mirrors the seed's repair semantics exactly: ``row`` leaves the
        placement's reference set -- released, even if its holder is alive and
        still has the bytes, so it can never revive and double-count the copy
        -- and the fresh copy on ``new_node`` joins it as a ``kind`` row
        (:data:`KIND_PRIMARY`, :data:`KIND_SALTED` or :data:`KIND_REPLICA`).  A
        fresh primary-kind copy becomes the copy the placement points at first.
        The released copy stays on its holder's disk as an orphan until the
        holder is wiped or departs.  Returns the fresh row.
        """
        placement_idx = int(self._placement[row])
        if self._alive[row]:  # a migrating copy: its holder is still up
            self._set_alive(np.asarray([row], dtype=np.int64), False)
        self._released[row] = True
        slot = int(self._owner[row])
        held = self._orphans.get(slot)
        if held is None:
            held = self._orphans[slot] = {}
            if self._slot_nodes[slot].alive:
                self._live_orphans.add(slot)
        held[placement_idx] = int(self._size[row])
        fresh = self._register_copy_row(placement_idx, new_node, size, digest, kind=kind)
        if kind != KIND_REPLICA:
            self._placement_primary[placement_idx] = self._owner[fresh]
        return fresh

    def add_replica_copy(
        self,
        chunk_idx: int,
        position: int,
        node: "OverlayNode",
        size: int,
        digest: Optional[bytes] = None,
    ) -> int:
        """Record an extra replica copy joining an existing placement.

        Used by out-of-pipeline replica creation (the multicast replicator of
        Section 4.4.1) after the file was registered: the row joins the end
        of the placement's replicas.
        """
        return self._register_copy_row(
            self.placement_for(chunk_idx, position), node, size, digest, kind=KIND_REPLICA
        )

    def _register_copy_row(
        self,
        placement_idx: int,
        node: "OverlayNode",
        size: int,
        digest: Optional[bytes],
        kind: int = KIND_PRIMARY,
    ) -> int:
        """Append a live copy to a placement, propagating threshold crossings.

        The fresh copy inherits the file's tenant, so regenerated blocks on a
        multi-tenant ledger stay visible to their tenant's repair pipeline.
        """
        chunk_idx = int(self._placement_chunk[placement_idx])
        file_idx = int(self._chunk_file[chunk_idx])
        row = self._append_row(
            node, size, file_idx, chunk_idx, placement_idx, digest, kind=kind,
            tenant=int(self._file_tenant[file_idx]) if file_idx >= 0 else 0,
        )
        self._copy_step(placement_idx, 1)
        return row

    def restore_meta_copy(self, node: "OverlayNode", row: int) -> int:
        """Record a re-created copy, on ``node``, of the CAT the meta ``row`` copies.

        A :data:`KIND_RESTORED` row of the same file, size, digest and tenant:
        named like the file's CAT, but, as the seed did not count restored
        copies among the file's CAT copies either, deleting the file later
        leaves it behind.
        """
        known = row < len(self._digest_known) and self._digest_known[row]
        digest = self.row_digest(row) if known else None
        return self._append_row(node, int(self._size[row]), int(self._file[row]), -1, -1, digest,
                                kind=KIND_RESTORED, tenant=int(self._row_tenant[row]))

    # ------------------------------------------------------------ file access --
    def file_index(self, name: str, tenant: Optional[int] = None) -> Optional[int]:
        """The ledger file index of ``name``, or None when never registered."""
        key = (tenant or 0, name)
        if self._pending_names and key in self._pending_names:
            self._flush_pending()
        return self._file_index.get(key)

    def file_rows(self, file_idx: int) -> List[int]:
        """Row ids of a file in registration (= ascending row id) order; a fresh list.

        Released rows are included until the next :meth:`compact` -- also for
        a file already removed (whose index no public accessor hands out any
        more); callers that care filter on the ``released`` column.
        """
        if self._pending_whole:
            self._flush_pending()
        return self._by_file.lookup(self, file_idx)

    def row_owner(self, row: int) -> "OverlayNode":
        """The node a row's copy lives on."""
        return self._slot_nodes[self._owner[row]]

    def row_released(self, row: int) -> bool:
        """Whether the row's copy left the system for good (deleted, wiped, departed, re-pointed)."""
        return bool(self._released[row])

    # --------------------------------------------------------------- compaction --
    def compact(self) -> Dict[str, int]:
        """Garbage-collect released rows with a stable row-id remapping.

        Rows released by deletions, wipes, departures and re-points (repair or
        migration) are dropped from every column, in every scheme alike;
        surviving rows keep their relative order (the per-node recovery-row
        order the seed dict walk defines).  No row id is held outside the
        columns except by the three row indexes, which are reset and re-sort
        from the compacted columns on their next lookup.  Dead-but-unreleased
        rows survive besides the live ones (an in-flight failure sweep that
        may yet see ``recover(wipe=False)``), so compacting mid-sweep is always
        safe.  What a placement is needs no released row: its primary is the
        ``_placement_primary`` slot column, its name is derived from the
        file / chunk / placement registries (plus the sparse salt and CAT
        attempt maps) and its orphans are keyed by placement, none of which
        compaction touches.

        Returns ``{rows_before, rows_released, rows_after}`` (``rows_released``
        counts the rows actually dropped).
        """
        if self._pending_whole:
            self._flush_pending()
        n = self.row_count
        kept = np.flatnonzero(~self._released[:n])
        stats = {
            "rows_before": n,
            "rows_released": int(n - kept.size),
            "rows_after": int(kept.size),
        }
        if kept.size == n:
            return stats
        capacity = max(_INITIAL, int(kept.size))
        for attr in _ROW_COLUMNS:
            old = getattr(self, attr)
            new = np.zeros(capacity, dtype=old.dtype)
            new[: kept.size] = old[:n][kept]
            setattr(self, attr, new)
        # The digest cache keeps the kept rows it covers, and no slack.
        cached = kept[: np.searchsorted(kept, len(self._digest))]
        for attr in _DIGEST_COLUMNS:
            setattr(self, attr, getattr(self, attr)[cached])
        self.row_count = int(kept.size)
        for index in (self._by_owner, self._by_file, self._by_placement):
            index.reset()
        return stats

    def memory_footprint(self) -> Dict[str, int]:
        """Ledger sizing counters (sampled by the churn-soak experiment)."""
        if self._pending_whole:
            self._flush_pending()
        columns = (
            *_ROW_COLUMNS, *_DIGEST_COLUMNS, *_PLACEMENT_COLUMNS, *_CHUNK_COLUMNS,
            *_FILE_COLUMNS, *_SLOT_COLUMNS, "_replication_hist",
        )
        indexes = (self._by_owner, self._by_file, self._by_placement)
        return {
            "row_count": self.row_count,
            "live_rows": self.live_rows,
            "released_rows": int(np.count_nonzero(self._released[: self.row_count])),
            "allocated_rows": int(len(self._owner)),
            "column_bytes": int(sum(getattr(self, attr).nbytes for attr in columns)),
            # The row indexes' Python lists and the int objects they hold.
            "index_bytes": sum(index.heap_bytes() for index in indexes),
            # What names are derived from: the file names, the sparse salt and
            # CAT-attempt maps, the orphan maps and the deleted / shared file
            # names (containers and strings).
            "name_bytes": self._name_bytes(),
        }

    def _name_bytes(self) -> int:
        size = sys.getsizeof
        total = size(self._file_names) + self._file_name_bytes + size(self._live_orphans)
        for side in (self._placement_salt, self._cat_attempt, self._orphans, self._removed_files,
                     self._shared_names):
            total += size(side)
        return (total + sum(map(size, self._orphans.values()))
                + sum(map(size, self._removed_files.values())))

    # --------------------------------------------------------------- invariants --
    def check_invariants(self) -> None:
        """Recompute every maintained aggregate and index from the raw columns.

        Raises ``AssertionError`` naming the first law that does not hold.
        Buffered registrations are flushed first: their eagerly bumped
        aggregates are exact only once each holder's liveness is reconciled.
        O(rows) Python work -- for tests and debugging, not for hot paths.
        """
        self._flush_pending()

        def law(name: str, have, want) -> None:
            if not np.array_equal(have, want):
                raise AssertionError(f"ledger invariant {name!r}: have {have!r}, columns say {want!r}")

        n, files, chunks, placements = self.row_count, self.file_count, self.chunk_count, self.placement_count
        alive, size = self._alive[:n], self._size[:n]
        active, bad = self._file_active[:files], self._file_bad[:files]
        file_size = self._file_size[:files]
        law("released => not alive", bool((alive & self._released[:n]).any()), False)
        law("live_rows", self.live_rows, int(alive.sum()))
        law("live_bytes", self.live_bytes, int(size[alive].sum()))
        law("active_files", self.active_files, int(active.sum()))
        law("stored_data_bytes", self.stored_data_bytes, int(file_size[active].sum()))
        law("unavailable_files", self.unavailable_files, int((active & (bad > 0)).sum()))

        live_placement = self._placement[:n][alive]
        copies = np.bincount(live_placement[live_placement >= 0], minlength=placements)
        law("_placement_copies", self._placement_copies[:placements], copies)
        placement_chunk = self._placement_chunk[:placements]
        first, span = self._chunk_first[:chunks], self._chunk_span[:chunks]
        law("_chunk_span", np.repeat(np.arange(chunks), span), placement_chunk)
        law("_chunk_first", first, np.cumsum(span) - span)
        # The placement's newest primary-kind (primary or salted) row is the
        # copy a re-point left it pointing at; once released (wiped,
        # departed) it may be compacted away.
        placement_col, kind = self._placement[:n], self._kind[:n]
        primary_rows = np.flatnonzero(
            ((kind == KIND_PRIMARY) | (kind == KIND_SALTED)) & (placement_col >= 0))
        newest = np.full(placements, -1, dtype=np.int64)
        np.maximum.at(newest, placement_col[primary_rows], primary_rows)
        held = newest[newest >= 0]
        held = held[~self._released[held]]
        law("_placement_primary names the newest unreleased primary row's owner",
            self._placement_primary[placement_col[held]], self._owner[held])
        chunk_alive = np.bincount(placement_chunk[copies > 0], minlength=chunks)
        law("_chunk_alive", self._chunk_alive[:chunks], chunk_alive)
        chunk_file = self._chunk_file[:chunks]
        file_bad = np.bincount(chunk_file[chunk_alive < self._chunk_required[:chunks]], minlength=files)
        law("_file_bad", bad, file_bad)
        counted = copies[active[chunk_file[placement_chunk]]]
        law("replication histogram", self._replication_hist, np.bincount(
            np.minimum(counted, REPLICATION_HIST_MAX), minlength=REPLICATION_HIST_MAX + 1))

        table, slot_nodes = self._serial_slot, self._slot_nodes
        law("_serial_slot maps one to one onto the slots",
            sorted(slot for slot in table if slot >= 0), list(range(len(slot_nodes))))
        holding = np.unique(self._owner[:n][~self._released[:n]]).tolist()
        law("_serial_slot finds every holder of an unreleased row",
            [table[slot_nodes[slot].serial] for slot in holding], holding)

        # Every name is derived; a digest hashed from it must match it.
        known = np.flatnonzero(self._digest_known[:n]).tolist()
        if known:
            law("digest == sha1(derived name)", self._digest[known],
                naming.name_digests([self.row_name(row) for row in known]))
        law("_live_orphans are the orphan holders that are up",
            sorted(self._live_orphans),
            sorted(slot for slot, held in self._orphans.items() if held and slot_nodes[slot].alive))
        # A node held by this ledger alone (and still a member) stores exactly
        # its unreleased rows and its orphans.
        network, owner, released = self.network, self._owner[:n], self._released[:n]
        for slot, node in enumerate(slot_nodes):
            if (node._state_listeners == (self,) and node.node_id in network
                    and network.node(node.node_id) is node):
                on_disk = int(size[(owner == slot) & ~released].sum())
                on_disk += sum(self._orphans.get(slot, {}).values())
                law(f"sizes on slot {slot}'s disk sum to its used", node.used, on_disk)

        for index, keys in (
            (self._by_owner, len(self._slot_nodes)),
            (self._by_file, files),
            (self._by_placement, placements),
        ):
            want: List[List[int]] = [[] for _ in range(keys)]
            for row, key in enumerate(getattr(self, index.column)[:n].tolist()):
                if key >= 0:
                    want[key].append(row)
            for key in range(keys):
                law(f"{index.column} index, key {key}", index.lookup(self, key), want[key])

    # --------------------------------------------------------------- aggregates --
    @property
    def unavailable_count(self) -> int:
        """Active files with at least one undecodable chunk (Figure 10), O(1)."""
        if self._pending_whole:
            self._flush_pending()  # buffered holders may have churned unseen
        return self.unavailable_files

    def file_available(self, file_idx: int) -> bool:
        """Whether every chunk of an active file is still decodable, O(1)."""
        return bool(self._file_active[file_idx]) and int(self._file_bad[file_idx]) == 0

    def tenant_aggregates(self, tenant: Optional[int] = None) -> Dict[str, int]:
        """One tenant's counters, worked out from the row and file columns.

        ``None`` reads the maintained O(1) global counters instead; an id
        :meth:`ensure_tenant` never returned raises ``ValueError``.
        """
        if self._pending_whole:
            self._flush_pending()  # buffered holders may have churned unseen
        if tenant is None:
            return {
                "active_files": self.active_files,
                "unavailable_files": self.unavailable_files,
                "stored_data_bytes": self.stored_data_bytes,
                "live_bytes": self.live_bytes,
                "live_rows": self.live_rows,
            }
        require_range("tenant", tenant, 0, len(self.tenant_names))
        n, files = self.row_count, self.file_count
        live = self._alive[:n] & (self._row_tenant[:n] == tenant)
        active = self._file_active[:files] & (self._file_tenant[:files] == tenant)
        return {
            "active_files": int(active.sum()),
            "unavailable_files": int((active & (self._file_bad[:files] > 0)).sum()),
            "stored_data_bytes": int(self._file_size[:files][active].sum()),
            "live_bytes": int(self._size[:n][live].sum()),
            "live_rows": int(live.sum()),
        }
