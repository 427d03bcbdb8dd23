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

* ``digest`` (``S20``, lazily batch-hashed), ``owner`` (dense node slot),
  ``size``, ``file``/``chunk``/``placement`` indices, ``alive`` and
  ``released`` flags;
* per-chunk registries: decode threshold (``required``), count of placements
  with at least one live copy (``alive``), owning file;
* per-file registries: count of currently-undecodable chunks (``bad``), an
  active flag, and the O(1) system counters (``live_bytes``,
  ``stored_data_bytes``, ``unavailable_files``).

"Blocks on a failed node" becomes one boolean mask over the owner column;
chunk survivability is maintained incrementally through ``np.unique`` /
fancy-indexing transitions, so a failure is processed in microseconds and an
availability sample is a single counter read.

The ledger stays exact no matter which code path kills a node because it
registers itself as a state listener on every :class:`OverlayNode` that holds
one of its rows: ``node.fail()`` / ``node.recover()`` / ``network.leave()``
notify it directly (the same pattern the array-backed placement engine uses
for O(1) usage aggregates).  A row can therefore die (node failure) and come
back (``recover(wipe=False)``); rows that stop being *referenced* -- file
deleted, node wiped or departed, or a placement re-pointed at a regenerated
copy -- are ``released`` and never resurrect, mirroring exactly which copies
the seed's placement-walking accounting would still see.

The ledger is the *system-wide* block store: besides the erasure-coded
placements of :class:`~repro.core.storage.StorageSystem` it carries the
whole-file replica groups of the PAST baseline and the fixed-block stripes of
the CFS baseline as first-class row kinds (:data:`KIND_PRIMARY`,
:data:`KIND_REPLICA` for successor/leaf-set replicas, :data:`KIND_SALTED` for
copies stored under a salted retry name, :data:`KIND_META` for CAT copies).
Baseline rows use a flat *group* registry -- one group per whole file (PAST)
or per fixed block (CFS), alive while at least one copy survives -- instead of
the chunk/placement hierarchy, so registering a stored file is a handful of
vectorised column writes and ``is_file_available`` is an O(1) counter read in
every scheme.

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
file carries a tenant tag, file names are scoped per tenant (two tenants may
both store ``"movie"``), and per-tenant O(1) aggregates (active files,
unavailable files, stored/live bytes) sit next to the global ones.
:meth:`BlockLedger.tenant` returns a :class:`TenantLedgerView` -- the facade
each store registers through -- while liveness transitions, per-node row
indexes and :meth:`BlockLedger.compact` remain global: mixed PAST/CFS/ours
populations share one failure mask and one compaction pass.  A raw ledger
used directly (no views) behaves exactly as before: everything lands in the
default tenant 0 and the global aggregates are its aggregates.

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

Every store owns or shares a ledger (:func:`resolve_ledger`); the per-node
``stored_blocks`` dicts and ``StoredChunk.placements`` it mirrors still exist,
and ``tests/reference/dict_walk.py`` re-derives every answer from them --
``tests/test_churn_equivalence.py`` / ``tests/test_placement_equivalence.py``
audit the ledger against that walk and against the frozen seed outputs in
``tests/golden/``.
"""

from __future__ import annotations

from operator import attrgetter
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core import naming

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (storage imports us)
    from repro.core.storage import StoredChunk, StoredFile
    from repro.overlay.network import OverlayNetwork
    from repro.overlay.node import OverlayNode

_S20 = "S20"
_INITIAL = 1024
_serial_of = attrgetter("serial")

#: Row kinds: the role a stored copy plays in its file's redundancy layout.
KIND_PRIMARY = 0   #: the copy a placement/group points at first
KIND_REPLICA = 1   #: a neighbour/successor replica of a primary copy
KIND_META = 2      #: CAT/metadata copy (not part of any chunk)
KIND_SALTED = 3    #: a primary stored under a salted retry name

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
    "_digest", "_digest_known", "_owner", "_size", "_file", "_chunk", "_placement",
    "_alive", "_released", "_kind", "_group", "_row_tenant",
)
_GROUP_COLUMNS = ("_group_copies", "_group_file")
_PLACEMENT_COLUMNS = ("_placement_chunk", "_placement_pos", "_placement_copies")
_CHUNK_COLUMNS = ("_chunk_required", "_chunk_alive", "_chunk_file", "_chunk_first", "_chunk_span")
_FILE_COLUMNS = ("_file_size", "_file_bad", "_file_active", "_file_tenant", "_file_placement0")
_SLOT_COLUMNS = ("_slot_site", "_slot_rack")


def _grown(array: np.ndarray, needed: int) -> np.ndarray:
    """Amortized-doubling growth for one column."""
    if needed <= len(array):
        return array
    new = np.zeros(max(needed, 2 * len(array)), dtype=array.dtype)
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
            order = np.argsort(keys * n + np.arange(n))
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

    def entries(self) -> int:
        """List slots held (prefix + offsets + overflow), for memory accounting."""
        return len(self.flat) + len(self.offsets) + self.seen - self.built


class BlockLedger:
    """System-wide columnar record of every stored block copy."""

    def __init__(self, network: "OverlayNetwork") -> None:
        self.network = network
        # -- row columns (one row per stored copy) ---------------------------
        self.row_count = 0
        self.names: List[str] = []
        self._digest = np.zeros(_INITIAL, dtype=_S20)
        self._digest_known = np.zeros(_INITIAL, dtype=bool)
        self._owner = np.full(_INITIAL, -1, dtype=np.int64)
        self._size = np.zeros(_INITIAL, dtype=np.int64)
        self._file = np.full(_INITIAL, -1, dtype=np.int64)
        self._chunk = np.full(_INITIAL, -1, dtype=np.int64)
        self._placement = np.full(_INITIAL, -1, dtype=np.int64)
        self._alive = np.zeros(_INITIAL, dtype=bool)
        self._released = np.zeros(_INITIAL, dtype=bool)
        self._kind = np.zeros(_INITIAL, dtype=np.int8)
        self._group = np.full(_INITIAL, -1, dtype=np.int64)
        self._row_tenant = np.zeros(_INITIAL, dtype=np.int16)
        #: Lazily sorted views of the ``_owner`` / ``_file`` / ``_placement``
        #: columns (see the module docstring); nothing is written per row.
        self._by_owner = _RowIndex("_owner")
        self._by_file = _RowIndex("_file")
        self._by_placement = _RowIndex("_placement")
        # -- flat group registry (baseline rows: one group per replica set) --
        self.group_count = 0
        self._group_copies = np.zeros(_INITIAL, dtype=np.int64)
        self._group_file = np.full(_INITIAL, -1, dtype=np.int64)
        # -- placement registry (one entry per block of a chunk) -------------
        self.placement_count = 0
        self._placement_chunk = np.full(_INITIAL, -1, dtype=np.int64)
        self._placement_pos = np.zeros(_INITIAL, dtype=np.int64)
        self._placement_copies = np.zeros(_INITIAL, dtype=np.int64)
        # -- chunk registry ---------------------------------------------------
        self.chunk_count = 0
        self._chunk_required = np.zeros(_INITIAL, dtype=np.int64)
        self._chunk_alive = np.zeros(_INITIAL, dtype=np.int64)
        self._chunk_file = np.full(_INITIAL, -1, dtype=np.int64)
        #: A chunk's placements are ``_chunk_first[c] + range(_chunk_span[c])``.
        self._chunk_first = np.zeros(_INITIAL, dtype=np.int64)
        self._chunk_span = np.zeros(_INITIAL, dtype=np.int64)
        self._chunk_objs: List["StoredChunk"] = []
        # -- file registry (names scoped per tenant) --------------------------
        self._file_index: Dict[Tuple[int, str], int] = {}
        self._file_names: List[str] = []
        self._file_size = np.zeros(_INITIAL, dtype=np.int64)
        self._file_bad = np.zeros(_INITIAL, dtype=np.int64)
        self._file_active = np.zeros(_INITIAL, dtype=bool)
        self._file_tenant = np.zeros(_INITIAL, dtype=np.int16)
        #: ``placement_count`` when the file was created: files and their
        #: placements are allocated in step, so file ``f`` owns placements
        #: ``[_file_placement0[f], _file_placement0[f + 1])``.
        self._file_placement0 = np.zeros(_INITIAL, dtype=np.int64)
        self.file_count = 0
        # -- tenants -----------------------------------------------------------
        #: Tenant 0 is the default namespace a raw ledger operates in; the
        #: per-tenant aggregate arrays are maintained only once a second
        #: tenant exists (``_multi_tenant``) -- a private single-tenant ledger
        #: pays nothing, and the global counters *are* tenant 0's.
        self._tenant_ids: Dict[str, int] = {"default": 0}
        self._tenant_names: List[str] = ["default"]
        self._views: Dict[int, "TenantLedgerView"] = {}
        self._multi_tenant = False
        self._tenant_active_files = np.zeros(1, dtype=np.int64)
        self._tenant_unavailable = np.zeros(1, dtype=np.int64)
        self._tenant_stored_bytes = np.zeros(1, dtype=np.int64)
        self._tenant_live_bytes = np.zeros(1, dtype=np.int64)
        self._tenant_live_rows = np.zeros(1, dtype=np.int64)
        # -- buffered whole-file registrations (PAST's store loop) ------------
        #: Deferred single-group registrations: (filename, size, stored name,
        #: holder nodes, salted, tenant).  Aggregates are bumped and liveness
        #: listeners attached at queue time; slot creation and the column
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
        #: Replication-level histogram over the erasure-coded chunk
        #: placements: ``hist[k]`` = placements currently holding ``k`` live
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
    def tenant_id(self) -> int:
        """The tenant a raw (un-viewed) ledger operates as: the default, 0."""
        return 0

    @property
    def multi_tenant(self) -> bool:
        """Whether any tenant beyond the default 0 has been registered."""
        return self._multi_tenant

    def ensure_tenant(self, name: str) -> int:
        """Create (or look up) the tenant id for ``name``.

        Creating the first *additional* tenant switches the ledger to
        multi-tenant accounting; everything registered so far belonged to the
        default tenant, so its per-tenant aggregates seed from the globals.
        """
        tenant = self._tenant_ids.get(name)
        if tenant is not None:
            return tenant
        tenant = len(self._tenant_names)
        self._tenant_ids[name] = tenant
        self._tenant_names.append(name)
        for attr in (
            "_tenant_active_files", "_tenant_unavailable", "_tenant_stored_bytes",
            "_tenant_live_bytes", "_tenant_live_rows",
        ):
            setattr(self, attr, _grown(getattr(self, attr), tenant + 1))
        if not self._multi_tenant:
            self._multi_tenant = True
            self._tenant_active_files[0] = self.active_files
            self._tenant_unavailable[0] = self.unavailable_files
            self._tenant_stored_bytes[0] = self.stored_data_bytes
            self._tenant_live_bytes[0] = self.live_bytes
            self._tenant_live_rows[0] = self.live_rows
        return tenant

    def tenant(self, name: str) -> "TenantLedgerView":
        """The (cached) tenant-scoped facade for ``name``."""
        tenant = self.ensure_tenant(name)
        view = self._views.get(tenant)
        if view is None:
            view = TenantLedgerView(self, name, tenant)
            self._views[tenant] = view
        return view

    def row_tenant(self, row: int) -> int:
        """The tenant a row's copy belongs to."""
        return int(self._row_tenant[row])

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
                    slot = table[node.serial] = len(self._slot_nodes)
                    self._slot_nodes.append(node)
                    if slot >= len(self._slot_site):
                        self._grow(_SLOT_COLUMNS, slot + 1)
                    self._slot_site[slot] = node.site
                    self._slot_rack[slot] = node.rack
                    if self not in node._state_listeners:
                        node._state_listeners = node._state_listeners + (self,)
                slots[index] = slot
        return slots

    def _grow(self, columns: Tuple[str, ...], needed: int) -> None:
        """Grow one registry's columns together (callers check capacity first)."""
        for attr in columns:
            setattr(self, attr, _grown(getattr(self, attr), needed))

    def _append_row(
        self,
        node: "OverlayNode",
        name: str,
        size: int,
        file_idx: int,
        chunk_idx: int,
        placement_idx: int,
        digest: Optional[bytes] = None,
        kind: int = KIND_PRIMARY,
        group_idx: int = -1,
        tenant: int = 0,
    ) -> int:
        row = self.row_count
        if row >= len(self._owner):
            self._grow(_ROW_COLUMNS, row + 1)
        self.names.append(name)
        table = self._serial_slot
        slot = table[node.serial] if node.serial < len(table) else -1
        self._owner[row] = slot if slot >= 0 else self._owner_slots((node,))[0]
        self._size[row] = size
        self._file[row] = file_idx
        self._chunk[row] = chunk_idx
        self._placement[row] = placement_idx
        self._alive[row] = True
        self._kind[row] = kind
        self._group[row] = group_idx
        self._row_tenant[row] = tenant
        if digest is not None:
            self._digest[row] = digest
            self._digest_known[row] = True
        self.row_count = row + 1
        self.live_bytes += size
        self.live_rows += 1
        if self._multi_tenant:
            self._tenant_live_bytes[tenant] += size
            self._tenant_live_rows[tenant] += 1
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
        self.file_count = f + 1
        if f >= len(self._file_size):
            self._grow(_FILE_COLUMNS, f + 1)
        self._file_index[key] = f
        self._file_names.append(name)
        self._file_placement0[f] = self.placement_count
        self._file_size[f] = size
        self._file_bad[f] = 0
        self._file_active[f] = True
        self._file_tenant[f] = tenant
        if counted:
            self.active_files += 1
            self.stored_data_bytes += size
            if self._multi_tenant:
                self._tenant_active_files[tenant] += 1
                self._tenant_stored_bytes[tenant] += size
        return f

    def register_file(self, stored: "StoredFile", required_blocks: int, tenant: int = 0) -> None:
        """Record every copy of a freshly (successfully) stored file.

        Called once per successful store, after the chunk and CAT placements
        are final, so the per-node row order matches the chronological
        ``stored_blocks`` dict order the seed recovery path iterates.
        """
        f = self._new_file_entry(stored.name, stored.size, tenant)
        stored.ledger_index = f

        network_node = self.network.node
        for chunk in stored.chunks:
            if chunk.is_empty or not chunk.placements:
                continue
            c = self.chunk_count
            self.chunk_count = c + 1
            if c >= len(self._chunk_file):
                self._grow(_CHUNK_COLUMNS, c + 1)
            self._chunk_required[c] = required_blocks
            self._chunk_file[c] = f
            self._chunk_first[c] = self.placement_count
            self._chunk_span[c] = len(chunk.placements)
            self._chunk_objs.append(chunk)
            chunk.ledger_index = c
            needed = self.placement_count + len(chunk.placements)
            if needed > len(self._placement_chunk):
                self._grow(_PLACEMENT_COLUMNS, needed)
            for pos, placement in enumerate(chunk.placements):
                p = self.placement_count
                self.placement_count = p + 1
                self._placement_chunk[p] = c
                self._placement_pos[p] = pos
                self._append_row(
                    network_node(placement.node_id), placement.block_name, placement.size,
                    f, c, p, tenant=tenant,
                )
                for node_id in placement.replica_nodes:
                    self._append_row(
                        network_node(node_id), placement.block_name, placement.size, f, c, p,
                        kind=KIND_REPLICA, tenant=tenant,
                    )
                copies = 1 + len(placement.replica_nodes)
                self._placement_copies[p] = copies
                self._replication_hist[min(copies, REPLICATION_HIST_MAX)] += 1
            # A fresh chunk has every placement alive; it can still start
            # below threshold if a policy ever under-places, so count it.
            self._chunk_alive[c] = len(chunk.placements)
            if self._chunk_alive[c] < required_blocks:
                self._file_bad[f] += 1
        for placement in stored.cat_placements:
            for node_id in (placement.node_id, *placement.replica_nodes):
                self._append_row(
                    network_node(node_id), placement.block_name, placement.size, f, -1, -1,
                    kind=KIND_META, tenant=tenant,
                )
        if self._file_bad[f] > 0:
            self.unavailable_files += 1
            if self._multi_tenant:
                self._tenant_unavailable[tenant] += 1

    # ------------------------------------------------- baseline registration --
    def register_whole_file(
        self,
        filename: str,
        size: int,
        stored_name: str,
        holders: Sequence["OverlayNode"],
        salted: bool = False,
        tenant: int = 0,
    ) -> int:
        """Record a PAST-style whole-file store: one replica group of copies.

        ``holders[0]`` is the primary (:data:`KIND_SALTED` when the store only
        succeeded under a salted retry name), the rest are leaf-set replica
        rows.  The file stays available while any copy in the group survives.
        Returns the ledger file index.
        """
        self._flush_pending()
        f = self._register_whole_file_now(filename, size, stored_name, holders, salted, tenant)
        if not holders:
            # Degenerate zero-copy store: the group is dead on arrival.
            self._file_bad[f] = 1
            self.unavailable_files += 1
            if self._multi_tenant:
                self._tenant_unavailable[tenant] += 1
        return f

    def queue_whole_file(
        self,
        filename: str,
        size: int,
        stored_name: str,
        holders: Sequence["OverlayNode"],
        salted: bool = False,
        tenant: int = 0,
    ) -> None:
        """Buffer a whole-file registration; its column writes happen at the next flush.

        Every ``holders`` entry must already hold ``stored_name`` (the way
        PAST's store loop places blocks before registering); the flush
        treats a missing copy as gone for good.

        PAST's store loop registers exactly one replica group per file; the
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
        if not holders:
            self.register_whole_file(filename, size, stored_name, holders, salted, tenant)
            return
        key = (tenant, filename)
        if key in self._file_index or key in self._pending_names:
            raise ValueError(f"file already registered: {filename!r}")
        copies = len(holders)
        self._pending_names.add(key)
        self._pending_whole.append((filename, size, stored_name, holders, salted, tenant))
        self.active_files += 1
        self.stored_data_bytes += size
        self.live_bytes += size * copies
        self.live_rows += copies
        if self._multi_tenant:
            self._tenant_active_files[tenant] += 1
            self._tenant_stored_bytes[tenant] += size
            self._tenant_live_bytes[tenant] += size * copies
            self._tenant_live_rows[tenant] += copies

    def flush_registrations(self) -> None:
        """Materialise every buffered registration (idempotent)."""
        self._flush_pending()

    def _flush_pending(self) -> None:
        if not self._pending_whole:
            return
        batch, self._pending_whole = self._pending_whole, []
        self._pending_names.clear()
        for filename, size, stored_name, holders, salted, tenant in batch:
            self._register_whole_file_now(
                filename, size, stored_name, holders, salted, tenant, counted=False
            )

    def _register_whole_file_now(
        self,
        filename: str,
        size: int,
        stored_name: str,
        holders: Sequence["OverlayNode"],
        salted: bool,
        tenant: int,
        counted: bool = True,
    ) -> int:
        """One whole-file replica group as bulk column writes (no scalar rows).

        ``counted=False`` (the buffered-flush path) additionally reconciles
        each holder's *current* liveness: a holder that failed keeps a dead
        but revivable row; one whose copy is gone for good (wiped disk,
        graceful departure) gets its row killed and released -- the states
        the listener notifications would have produced had the registration
        been materialised eagerly.
        """
        f = self._new_file_entry(filename, size, tenant, counted=counted)
        g = self.group_count
        self.group_count = g + 1
        if g >= len(self._group_file):
            self._grow(_GROUP_COLUMNS, g + 1)
        self._group_copies[g] = len(holders)
        self._group_file[g] = f
        b = len(holders)
        if not b:
            return f
        row0 = self.row_count
        row1 = row0 + b
        if row1 > len(self._owner):
            self._grow(_ROW_COLUMNS, row1)
        self.names.extend([stored_name] * b)
        self._owner[row0:row1] = self._owner_slots(holders)
        self._size[row0:row1] = size
        self._file[row0:row1] = f
        self._chunk[row0:row1] = -1
        self._placement[row0:row1] = -1
        self._alive[row0:row1] = True
        self._kind[row0:row1] = KIND_REPLICA
        self._kind[row0] = KIND_SALTED if salted else KIND_PRIMARY
        self._group[row0:row1] = g
        self._row_tenant[row0:row1] = tenant
        self.row_count = row1
        if counted:
            self.live_bytes += size * b
            self.live_rows += b
            if self._multi_tenant:
                self._tenant_live_bytes[tenant] += size * b
                self._tenant_live_rows[tenant] += b
        else:
            network = self.network
            for offset, node in enumerate(holders):
                # Gone for good (never revives): wiped, or departed -- also when
                # a fresh machine has since joined under the departed id.
                gone = (stored_name not in node.stored_blocks or node.node_id not in network
                        or network.node(node.node_id) is not node)
                if node.alive and not gone:
                    continue
                row = np.asarray([row0 + offset], dtype=np.int64)
                self._kill_rows(row)
                if gone:
                    self._released[row] = True
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
        tenant: int = 0,
    ) -> int:
        """Record a CFS-style striped store in bulk: one group per fixed block.

        ``names``/``holders`` are the per-block stored names (already salted
        where a retry was needed) and primary holders, in block order; every
        block is ``block_size`` bytes except the last, which holds the
        remainder.  ``salted`` lists the block indices stored under a retry
        name; ``replicas`` lists extra ``(block_index, node)`` successor
        copies.  The whole registration is a handful of vectorised column
        writes, which is what keeps the ledger out of the store loop's way --
        the columnar bookkeeping replaces the per-block tuple lists the seed
        path carries.  Returns the ledger file index.
        """
        f = self._new_file_entry(filename, size, tenant)
        b = len(names)
        g0 = self.group_count
        self.group_count = g0 + b
        if g0 + b > len(self._group_file):
            self._grow(_GROUP_COLUMNS, g0 + b)
        self._group_copies[g0 : g0 + b] = 1
        self._group_file[g0 : g0 + b] = f
        row0 = self.row_count
        row1 = row0 + b
        if row1 > len(self._owner):
            self._grow(_ROW_COLUMNS, row1)
        self.names.extend(names)
        self._owner[row0:row1] = self._owner_slots(holders)
        if b:
            # Full blocks plus the remainder: the sizes sum to ``size``.
            self._size[row0:row1] = block_size
            self._size[row1 - 1] = size - (b - 1) * block_size
            self.live_bytes += size
        self._file[row0:row1] = f
        self._chunk[row0:row1] = -1
        self._placement[row0:row1] = -1
        self._group[row0:row1] = np.arange(g0, g0 + b, dtype=np.int64)
        self._alive[row0:row1] = True
        self._kind[row0:row1] = KIND_PRIMARY
        self._row_tenant[row0:row1] = tenant
        if salted:
            self._kind[[row0 + index for index in salted]] = KIND_SALTED
        self.row_count = row1
        self.live_rows += b
        if self._multi_tenant and b:
            self._tenant_live_bytes[tenant] += size
            self._tenant_live_rows[tenant] += b
        if replicas:
            for index, node in replicas:
                block_bytes = int(self._size[row0 + index])
                self._append_row(
                    node, names[index], block_bytes, f, -1, -1,
                    kind=KIND_REPLICA, group_idx=g0 + index, tenant=tenant,
                )
                self._group_copies[g0 + index] += 1
        return f

    def remove_file(self, name: str, tenant: int = 0) -> bool:
        """Release every row of a deleted file and drop it from the accounting."""
        if self._pending_whole:
            self._flush_pending()
        f = self._file_index.pop((tenant, name), None)
        if f is None:
            return False
        if self._file_active[f]:
            self._file_active[f] = False
            self.active_files -= 1
            self.stored_data_bytes -= int(self._file_size[f])
            if self._multi_tenant:
                self._tenant_active_files[tenant] -= 1
                self._tenant_stored_bytes[tenant] -= int(self._file_size[f])
            if self._file_bad[f] > 0:
                self.unavailable_files -= 1
                if self._multi_tenant:
                    self._tenant_unavailable[tenant] -= 1
        rows = np.asarray(self._by_file.lookup(self, f), dtype=np.int64)
        self._kill_rows(rows[self._alive[rows]])
        self._released[rows] = True
        # Retire the file's placements from the replication histogram: every
        # row is now released, so no transition can touch them again.  Read
        # from the registry, not the rows -- a placement whose copies were all
        # wiped and compacted away has no row left to find it through.
        p0 = int(self._file_placement0[f])
        p1 = int(self._file_placement0[f + 1]) if f + 1 < self.file_count else self.placement_count
        buckets = np.minimum(self._placement_copies[p0:p1], REPLICATION_HIST_MAX)
        np.subtract.at(self._replication_hist, buckets, 1)
        return True

    # ------------------------------------------------------ liveness transitions --
    def _mark_files_bad(self, files: np.ndarray) -> None:
        """Bump the bad counter of ``files`` (with multiplicity, in one pass)."""
        uf, inc = np.unique(files, return_counts=True)
        before_f = self._file_bad[uf]
        self._file_bad[uf] = before_f + inc
        crossed = (before_f == 0) & self._file_active[uf]
        self.unavailable_files += int(crossed.sum())
        if self._multi_tenant and crossed.any():
            # The aggregate arrays grow by amortized doubling, so slice to the
            # live tenant count before adding the bincount.
            count = len(self._tenant_names)
            self._tenant_unavailable[:count] += np.bincount(
                self._file_tenant[uf[crossed]], minlength=count
            )

    def _mark_files_good(self, files: np.ndarray) -> None:
        """The inverse of :meth:`_mark_files_bad`."""
        uf, dec = np.unique(files, return_counts=True)
        before_f = self._file_bad[uf]
        after_f = before_f - dec
        self._file_bad[uf] = after_f
        crossed = (after_f == 0) & (before_f > 0) & self._file_active[uf]
        self.unavailable_files -= int(crossed.sum())
        if self._multi_tenant and crossed.any():
            count = len(self._tenant_names)
            self._tenant_unavailable[:count] -= np.bincount(
                self._file_tenant[uf[crossed]], minlength=count
            )

    def _tenant_live_delta(self, rows: np.ndarray, sign: int) -> None:
        """Apply a kill/revive batch to the per-tenant live aggregates.

        The aggregate arrays grow by amortized doubling, so the bincounts are
        added through a slice of the live tenant count.
        """
        tenants = self._row_tenant[rows]
        count = len(self._tenant_names)
        self._tenant_live_rows[:count] += sign * np.bincount(tenants, minlength=count)
        self._tenant_live_bytes[:count] += sign * np.bincount(
            tenants, weights=self._size[rows], minlength=count
        ).astype(np.int64)

    def _kill_rows(self, rows: np.ndarray) -> None:
        """Mark currently-live rows dead and propagate the count transitions."""
        if rows.size == 0:
            return
        self._alive[rows] = False
        self.live_bytes -= int(self._size[rows].sum())
        self.live_rows -= int(rows.size)
        if self._multi_tenant:
            self._tenant_live_delta(rows, -1)
        placements = self._placement[rows]
        placements = placements[placements >= 0]
        if placements.size:
            uniq, counts = np.unique(placements, return_counts=True)
            before = self._placement_copies[uniq]
            after = before - counts
            self._placement_copies[uniq] = after
            hist = self._replication_hist
            np.subtract.at(hist, np.minimum(before, REPLICATION_HIST_MAX), 1)
            np.add.at(hist, np.minimum(after, REPLICATION_HIST_MAX), 1)
            newly_dead = uniq[(after == 0) & (before > 0)]
            if newly_dead.size:
                chunks, dec = np.unique(self._placement_chunk[newly_dead], return_counts=True)
                before_c = self._chunk_alive[chunks]
                after_c = before_c - dec
                self._chunk_alive[chunks] = after_c
                required = self._chunk_required[chunks]
                crossed = chunks[(after_c < required) & (before_c >= required)]
                if crossed.size:
                    files = self._chunk_file[crossed]
                    files = files[files >= 0]
                    if files.size:
                        self._mark_files_bad(files)
        # Baseline (flat-group) rows: a group dies with its last live copy.
        groups = self._group[rows]
        groups = groups[groups >= 0]
        if groups.size:
            uniq, counts = np.unique(groups, return_counts=True)
            before = self._group_copies[uniq]
            after = before - counts
            self._group_copies[uniq] = after
            newly_dead = uniq[(after == 0) & (before > 0)]
            if newly_dead.size:
                self._mark_files_bad(self._group_file[newly_dead])

    def _revive_rows(self, rows: np.ndarray) -> None:
        """Bring dead (but unreleased) rows back; the inverse of :meth:`_kill_rows`."""
        if rows.size == 0:
            return
        self._alive[rows] = True
        self.live_bytes += int(self._size[rows].sum())
        self.live_rows += int(rows.size)
        if self._multi_tenant:
            self._tenant_live_delta(rows, 1)
        placements = self._placement[rows]
        placements = placements[placements >= 0]
        if placements.size:
            uniq, counts = np.unique(placements, return_counts=True)
            before = self._placement_copies[uniq]
            self._placement_copies[uniq] = before + counts
            hist = self._replication_hist
            np.subtract.at(hist, np.minimum(before, REPLICATION_HIST_MAX), 1)
            np.add.at(hist, np.minimum(before + counts, REPLICATION_HIST_MAX), 1)
            newly_live = uniq[before == 0]
            if newly_live.size:
                chunks, inc = np.unique(self._placement_chunk[newly_live], return_counts=True)
                before_c = self._chunk_alive[chunks]
                after_c = before_c + inc
                self._chunk_alive[chunks] = after_c
                required = self._chunk_required[chunks]
                crossed = chunks[(after_c >= required) & (before_c < required)]
                if crossed.size:
                    files = self._chunk_file[crossed]
                    files = files[files >= 0]
                    if files.size:
                        self._mark_files_good(files)
        groups = self._group[rows]
        groups = groups[groups >= 0]
        if groups.size:
            uniq, counts = np.unique(groups, return_counts=True)
            before = self._group_copies[uniq]
            self._group_copies[uniq] = before + counts
            newly_live = uniq[before == 0]
            if newly_live.size:
                self._mark_files_good(self._group_file[newly_live])

    # -- node state listener hooks (wired through OverlayNode/OverlayNetwork) ----
    def _note_failed(self, node: "OverlayNode") -> None:
        rows = np.asarray(self.recovery_rows(node), dtype=np.int64)
        self._kill_rows(rows[self._alive[rows]])

    def _note_recovered(self, node: "OverlayNode", wipe: bool, revived: bool) -> None:
        rows = np.asarray(self.recovery_rows(node), dtype=np.int64)
        if wipe:
            # The disk came back empty: every copy it held is gone for good.
            self._kill_rows(rows[self._alive[rows]])
            self._released[rows] = True
        elif revived:
            self._revive_rows(rows[~self._alive[rows]])

    def _note_departed(self, node: "OverlayNode") -> None:
        """A graceful leave takes the copies out of the system permanently."""
        rows = np.asarray(self.recovery_rows(node), dtype=np.int64)
        self._kill_rows(rows[self._alive[rows]])
        self._released[rows] = True

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
        row mask, and the whole outage is a single :meth:`_kill_rows` batch --
        never N scalar per-node failures.  The caller remains responsible for
        the overlay-side transitions (``node.fail()``, DHT removal); by the
        time those run, this ledger holds no live rows for the domain, so the
        per-node listener sweeps are no-ops.  Returns the number of rows
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
        self._kill_rows(rows)
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
        primaries) are excluded, so a name a dead node's ``stored_blocks``
        dict still lists without a row here was already repaired or deleted.
        The liveness listeners above sweep these rows.
        """
        if self._pending_whole:
            self._flush_pending()
        table = self._serial_slot
        slot = table[node.serial] if node.serial < len(table) else -1
        if slot < 0:
            return []
        released = self._released
        return [row for row in self._by_owner.lookup(self, slot) if not released[row]]

    def ensure_digests(self, rows: Sequence[int]) -> None:
        """Batch-hash the names of ``rows`` into the digest column (idempotent)."""
        missing = [row for row in rows if not self._digest_known[row]]
        if missing:
            names = self.names
            self._digest[missing] = naming.name_digests([names[row] for row in missing])
            self._digest_known[missing] = True

    def row_name(self, row: int) -> str:
        return self.names[row]

    def row_key(self, row: int) -> int:
        """The 160-bit DHT key of the row's block name (requires ensure_digests)."""
        return int.from_bytes(bytes(self._digest[row]).ljust(20, b"\x00"), "big")

    def row_digest(self, row: int) -> bytes:
        return bytes(self._digest[row]).ljust(20, b"\x00")

    def row_fields(self, row: int) -> tuple:
        """(file_idx, chunk_idx, placement_idx, size) of one row."""
        return (
            int(self._file[row]),
            int(self._chunk[row]),
            int(self._placement[row]),
            int(self._size[row]),
        )

    def row_group(self, row: int) -> int:
        """The row's baseline replica-group index (-1 for chunk/meta rows)."""
        return int(self._group[row])

    def chunk_object(self, chunk_idx: int) -> "StoredChunk":
        return self._chunk_objs[chunk_idx]

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
        return int(self._placement_pos[placement_idx])

    def placement_for(self, chunk_idx: int, position: int) -> int:
        """The ledger placement index for position ``position`` of a chunk."""
        return int(self._chunk_first[chunk_idx]) + position

    def chunk_placement_indexes(self, chunk_idx: int) -> Sequence[int]:
        """The ledger placement indexes of a chunk, in placement order."""
        first = int(self._chunk_first[chunk_idx])
        return range(first, first + int(self._chunk_span[chunk_idx]))

    def live_copy_owner(self, placement_idx: int) -> Optional["OverlayNode"]:
        """A node holding a live copy of the placement (None if all are dead).

        Used by the bandwidth-aware repair executor to pick the surviving
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

    def replace_primary(
        self,
        placement_idx: int,
        old_node_id: int,
        new_node: "OverlayNode",
        name: str,
        size: int,
        digest: Optional[bytes] = None,
    ) -> int:
        """Re-point a placement's primary copy at a regenerated block.

        Mirrors the seed's repair semantics exactly: the old primary's copy
        leaves the placement's reference set (released -- even if the old
        holder is alive and still has the bytes, the placement no longer
        points at it), and the fresh copy on ``new_node`` joins it.
        """
        self._release_copy(placement_idx, old_node_id)
        return self._register_copy_row(placement_idx, new_node, name, size, digest)

    def _release_copy(self, placement_idx: int, node_id: int) -> None:
        """Release the placement's first unreleased copy held by ``node_id``."""
        node_id, slot_nodes = int(node_id), self._slot_nodes
        for row in self._by_placement.lookup(self, placement_idx):
            if slot_nodes[self._owner[row]].node_id.value == node_id and not self._released[row]:
                if self._alive[row]:
                    self._kill_rows(np.asarray([row], dtype=np.int64))
                self._released[row] = True
                return

    def add_replica_copy(
        self,
        chunk_idx: int,
        position: int,
        node: "OverlayNode",
        name: str,
        size: int,
        digest: Optional[bytes] = None,
    ) -> int:
        """Record an extra replica copy joining an existing placement.

        Used by out-of-pipeline replica creation (the multicast replicator of
        Section 4.4.1), which appends holders to ``placement.replica_nodes``
        after the file was registered.
        """
        return self._register_copy_row(
            self.placement_for(chunk_idx, position), node, name, size, digest, kind=KIND_REPLICA
        )

    def replace_replica(
        self,
        placement_idx: int,
        old_node_id: int,
        new_node: "OverlayNode",
        name: str,
        size: int,
        digest: Optional[bytes] = None,
    ) -> int:
        """Re-point a lost neighbour-replica copy at a re-replicated block.

        The replica counterpart of :meth:`replace_primary`: the dead holder's
        row leaves the placement's reference set (released -- it can never
        revive and double-count the copy) and the fresh copy on ``new_node``
        joins it, restoring the placement's replication level.
        """
        self._release_copy(placement_idx, old_node_id)
        return self._register_copy_row(
            placement_idx, new_node, name, size, digest, kind=KIND_REPLICA
        )

    def _register_copy_row(
        self,
        placement_idx: int,
        node: "OverlayNode",
        name: str,
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
            node, name, size, file_idx, chunk_idx, placement_idx, digest, kind=kind,
            tenant=int(self._file_tenant[file_idx]) if file_idx >= 0 else 0,
        )
        copies = self._placement_copies
        copies[placement_idx] += 1
        hist = self._replication_hist
        hist[min(int(copies[placement_idx]) - 1, REPLICATION_HIST_MAX)] -= 1
        hist[min(int(copies[placement_idx]), REPLICATION_HIST_MAX)] += 1
        if copies[placement_idx] == 1:
            alive = self._chunk_alive
            alive[chunk_idx] += 1
            if alive[chunk_idx] == self._chunk_required[chunk_idx] and file_idx >= 0:
                # Route the crossing through the shared transition helper so
                # the per-tenant unavailable counters move with the global one.
                self._mark_files_good(np.asarray([file_idx], dtype=np.int64))
        return row

    def restore_meta_copy(
        self, node: "OverlayNode", name: str, size: int, digest: Optional[bytes] = None,
        tenant: int = 0,
    ) -> int:
        """Record a re-created CAT/metadata copy.

        Registered untracked-by-file (``file_idx = -1``) because the seed does
        not add restored copies to ``cat_placements`` either -- deleting the
        file later leaves them behind in both representations.
        """
        return self._append_row(node, name, size, -1, -1, -1, digest, tenant=tenant)

    def migrate_group_row(self, row: int, new_node: "OverlayNode") -> int:
        """Re-point one baseline replica-group copy at a migrated duplicate.

        The graceful-departure counterpart of :meth:`replace_primary` for
        PAST/CFS rows: the departing holder's copy leaves the group
        (released), and the copy written to ``new_node`` joins it, keeping
        the group's live-copy counter -- and therefore ``is_file_available``
        -- exact through the move.
        """
        group = int(self._group[row])
        file_idx = int(self._file[row])
        name = self.names[row]
        size = int(self._size[row])
        kind = int(self._kind[row])
        tenant = int(self._row_tenant[row])
        digest = bytes(self._digest[row]) if self._digest_known[row] else None
        if not self._released[row]:
            if self._alive[row]:
                self._kill_rows(np.asarray([row], dtype=np.int64))
            self._released[row] = True
        new_row = self._append_row(
            new_node, name, size, file_idx, -1, -1, digest, kind=kind, group_idx=group,
            tenant=tenant,
        )
        before = int(self._group_copies[group])
        self._group_copies[group] = before + 1
        if before == 0:
            self._mark_files_good(np.asarray([self._group_file[group]], dtype=np.int64))
        return new_row

    # --------------------------------------------------------- baseline access --
    def file_index(self, name: str, tenant: int = 0) -> Optional[int]:
        """The ledger file index of ``name``, or None when never registered."""
        if self._pending_names and (tenant, name) in self._pending_names:
            self._flush_pending()
        return self._file_index.get((tenant, name))

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

    def baseline_entries(
        self, file_idx: int
    ) -> List[Tuple[str, "OverlayNode", int, List["OverlayNode"]]]:
        """Materialise a baseline file's ``(name, primary, size, replicas)`` rows.

        Reconstructs, in block order, exactly the per-block bookkeeping the
        seed dict path carries -- the equivalence oracles compare the two
        representations through this accessor.
        """
        entries: Dict[int, Tuple[str, "OverlayNode", int, List["OverlayNode"]]] = {}
        slot_nodes = self._slot_nodes
        for row in self._by_file.lookup(self, file_idx):
            group = int(self._group[row])
            node = slot_nodes[self._owner[row]]
            if int(self._kind[row]) == KIND_REPLICA and group in entries:
                entries[group][3].append(node)
            else:
                entries[group] = (self.names[row], node, int(self._size[row]), [])
        return [entries[group] for group in sorted(entries)]

    def baseline_block_sizes(self, file_idx: int) -> List[int]:
        """Sizes of a baseline file's primary blocks (replica rows excluded)."""
        kind = self._kind
        size = self._size
        rows = self._by_file.lookup(self, file_idx)
        return [int(size[row]) for row in rows if kind[row] != KIND_REPLICA]

    # --------------------------------------------------------------- compaction --
    def compact(self) -> Dict[str, int]:
        """Garbage-collect released rows with a stable row-id remapping.

        Rows released by deletions, wipes, departures and repair re-points are
        dropped from every column; surviving rows keep their relative order
        (the per-node recovery-row order the seed dict walk defines).  No row
        id is held outside the columns except by the three row indexes, which
        are reset and re-sort from the compacted columns on their next
        lookup.  Two classes of rows survive besides the live ones:

        * dead-but-unreleased rows (an in-flight failure sweep that may yet
          see ``recover(wipe=False)``), so compacting mid-sweep is always
          safe;
        * released *baseline* rows of still-active files: the seed tuple
          bookkeeping they mirror (``chunk_sizes`` / ``block_entries``) never
          forgets a placed block, so dropping them would make the GC
          observable.  They are collected once their file is deleted.

        Returns ``{rows_before, rows_released, rows_after}`` (``rows_released``
        counts the rows actually dropped).
        """
        if self._pending_whole:
            self._flush_pending()
        n = self.row_count
        released = self._released[:n]
        keep = ~released
        group_col = self._group[:n]
        file_col = self._file[:n]
        baseline = released & (group_col >= 0)
        if baseline.any():
            keep |= baseline & self._file_active[np.where(file_col >= 0, file_col, 0)]
        kept = np.flatnonzero(keep)
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
        self.names = np.asarray(self.names, dtype=object)[kept].tolist()
        self.row_count = int(kept.size)
        for index in (self._by_owner, self._by_file, self._by_placement):
            index.reset()
        return stats

    def memory_footprint(self) -> Dict[str, int]:
        """Ledger sizing counters (sampled by the churn-soak experiment)."""
        if self._pending_whole:
            self._flush_pending()
        columns = (
            *_ROW_COLUMNS, *_GROUP_COLUMNS, *_PLACEMENT_COLUMNS, *_CHUNK_COLUMNS,
            *_FILE_COLUMNS, *_SLOT_COLUMNS, "_replication_hist",
        )
        indexes = (self._by_owner, self._by_file, self._by_placement)
        return {
            "row_count": self.row_count,
            "live_rows": self.live_rows,
            "released_rows": int(np.count_nonzero(self._released[: self.row_count])),
            "allocated_rows": int(len(self._owner)),
            "column_bytes": int(sum(getattr(self, attr).nbytes for attr in columns)),
            # The row indexes' Python lists, per entry at pointer size.
            "index_bytes": 8 * sum(index.entries() for index in indexes),
        }

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

        n, files, chunks = self.row_count, self.file_count, self.chunk_count
        placements, groups = self.placement_count, self.group_count
        alive, size = self._alive[:n], self._size[:n]
        active, bad = self._file_active[:files], self._file_bad[:files]
        file_size = self._file_size[:files]
        law("released => not alive", bool((alive & self._released[:n]).any()), False)
        law("live_rows", self.live_rows, int(alive.sum()))
        law("live_bytes", self.live_bytes, int(size[alive].sum()))
        law("active_files", self.active_files, int(active.sum()))
        law("stored_data_bytes", self.stored_data_bytes, int(file_size[active].sum()))
        law("unavailable_files", self.unavailable_files, int((active & (bad > 0)).sum()))

        live_group = self._group[:n][alive]
        group_copies = np.bincount(live_group[live_group >= 0], minlength=groups)
        law("_group_copies", self._group_copies[:groups], group_copies)
        live_placement = self._placement[:n][alive]
        copies = np.bincount(live_placement[live_placement >= 0], minlength=placements)
        law("_placement_copies", self._placement_copies[:placements], copies)
        placement_chunk = self._placement_chunk[:placements]
        first, span = self._chunk_first[:chunks], self._chunk_span[:chunks]
        law("_chunk_span", np.repeat(np.arange(chunks), span), placement_chunk)
        law("_chunk_first", first, np.cumsum(span) - span)
        law("_placement_pos", self._placement_pos[:placements],
            np.arange(placements) - first[placement_chunk])
        chunk_alive = np.bincount(placement_chunk[copies > 0], minlength=chunks)
        law("_chunk_alive", self._chunk_alive[:chunks], chunk_alive)
        chunk_file = self._chunk_file[:chunks]
        file_bad = np.bincount(chunk_file[chunk_alive < self._chunk_required[:chunks]], minlength=files)
        file_bad += np.bincount(self._group_file[:groups][group_copies == 0], minlength=files)
        law("_file_bad", bad, file_bad)
        counted = copies[active[chunk_file[placement_chunk]]]
        law("replication histogram", self._replication_hist, np.bincount(
            np.minimum(counted, REPLICATION_HIST_MAX), minlength=REPLICATION_HIST_MAX + 1))

        if self._multi_tenant:
            count = len(self._tenant_names)
            file_tenant, row_tenant = self._file_tenant[:files], self._row_tenant[:n][alive]
            for name, tenants, weights in (
                ("_tenant_active_files", file_tenant[active], None),
                ("_tenant_unavailable", file_tenant[active & (bad > 0)], None),
                ("_tenant_stored_bytes", file_tenant[active], file_size[active]),
                ("_tenant_live_rows", row_tenant, None),
                ("_tenant_live_bytes", row_tenant, size[alive]),
            ):
                want = np.bincount(tenants, weights=weights, minlength=count).astype(np.int64)
                law(name, getattr(self, name)[:count], want)

        table, slot_nodes = self._serial_slot, self._slot_nodes
        law("_serial_slot maps one to one onto the slots",
            sorted(slot for slot in table if slot >= 0), list(range(len(slot_nodes))))
        holding = np.unique(self._owner[:n][~self._released[:n]]).tolist()
        law("_serial_slot finds every holder of an unreleased row",
            [table[slot_nodes[slot].serial] for slot in holding], holding)

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

    def tenant_aggregates(self, tenant: int) -> Dict[str, int]:
        """O(1) per-tenant counters (globals when only the default tenant exists)."""
        if self._pending_whole:
            self._flush_pending()  # buffered holders may have churned unseen
        if not self._multi_tenant:
            return {
                "active_files": self.active_files,
                "unavailable_files": self.unavailable_files,
                "stored_data_bytes": self.stored_data_bytes,
                "live_bytes": self.live_bytes,
                "live_rows": self.live_rows,
            }
        return {
            "active_files": int(self._tenant_active_files[tenant]),
            "unavailable_files": int(self._tenant_unavailable[tenant]),
            "stored_data_bytes": int(self._tenant_stored_bytes[tenant]),
            "live_bytes": int(self._tenant_live_bytes[tenant]),
            "live_rows": int(self._tenant_live_rows[tenant]),
        }


class TenantLedgerView:
    """A tenant-scoped facade over a (potentially shared) :class:`BlockLedger`.

    Stores register and delete through the view, which tags every file and
    row with the tenant id and scopes the file namespace, while every other
    operation -- liveness listeners, repair row reads, compaction -- passes
    straight through to the shared base ledger (mixed PAST/CFS/ours
    populations share one failure mask and one compaction pass).  Aggregate
    properties read the per-tenant O(1) counters.
    """

    __slots__ = ("base", "tenant_name", "tenant_id")

    def __init__(self, base: BlockLedger, name: str, tenant_id: int) -> None:
        self.base = base
        self.tenant_name = name
        self.tenant_id = tenant_id

    # -- tenant-scoped registration -------------------------------------------
    def register_file(self, stored: "StoredFile", required_blocks: int) -> None:
        return self.base.register_file(stored, required_blocks, tenant=self.tenant_id)

    def queue_whole_file(
        self, filename, size, stored_name, holders, salted: bool = False
    ) -> None:
        return self.base.queue_whole_file(
            filename, size, stored_name, holders, salted, tenant=self.tenant_id
        )

    def register_striped_file(
        self, filename, size, names, holders, block_size, salted=None, replicas=None
    ) -> int:
        return self.base.register_striped_file(
            filename, size, names, holders, block_size, salted=salted, replicas=replicas,
            tenant=self.tenant_id,
        )

    def remove_file(self, name: str) -> bool:
        return self.base.remove_file(name, tenant=self.tenant_id)

    def file_index(self, name: str) -> Optional[int]:
        return self.base.file_index(name, tenant=self.tenant_id)

    def restore_meta_copy(self, node, name, size, digest=None) -> int:
        return self.base.restore_meta_copy(node, name, size, digest, tenant=self.tenant_id)

    # -- tenant-scoped aggregates ----------------------------------------------
    @property
    def unavailable_count(self) -> int:
        """Unavailable active files of this tenant, O(1)."""
        return self.base.tenant_aggregates(self.tenant_id)["unavailable_files"]

    @property
    def active_files(self) -> int:
        return self.base.tenant_aggregates(self.tenant_id)["active_files"]

    @property
    def stored_data_bytes(self) -> int:
        return self.base.tenant_aggregates(self.tenant_id)["stored_data_bytes"]

    @property
    def live_bytes(self) -> int:
        return self.base.tenant_aggregates(self.tenant_id)["live_bytes"]

    @property
    def live_rows(self) -> int:
        return self.base.tenant_aggregates(self.tenant_id)["live_rows"]

    # -- passthrough -----------------------------------------------------------
    def __getattr__(self, name: str):
        return getattr(self.base, name)


def resolve_ledger(network: "OverlayNetwork", ledger, tenant: Optional[str]):
    """Resolve a store's ledger handle: private, shared, or tenant-scoped.

    ``ledger=None`` creates a private untagged :class:`BlockLedger`; a
    ``tenant`` name wraps the (possibly shared) ledger in a
    :class:`TenantLedgerView` so files and rows are tagged and name-scoped
    per tenant.  A raw shared ledger without a tenant keeps the single shared
    namespace (duplicate names across stores are rejected).
    """
    if ledger is None:
        ledger = BlockLedger(network)
    if tenant is None:
        return ledger
    return ledger.tenant(tenant) if isinstance(ledger, BlockLedger) else ledger
