"""I/O interposition layer and the pluggable storage back-ends it redirects to.

The paper's implementation overrides ``open``/``read``/``write``/``close`` via
``LD_PRELOAD`` (259 lines of C) and forwards the calls to a lookup module that
maps the accessed byte range to the chunk holding it and to the node storing
that chunk, keeping a small cache of file-descriptor -> storing-node entries
so repeated accesses avoid p2p look-ups.  :class:`InterposedIO` reproduces
that layer against simulated time: every redirected call charges interposition
overhead, cache misses charge p2p look-ups, and data movement charges transfer
time, all through :class:`repro.grid.transfer.TransferCostModel`.

Three back-ends implement the schemes compared in Table 4:

* :class:`WholeFileBackend`   -- the original Condor model: the whole file must
  fit on a single designated machine; no DHT, no redirection overhead;
* :class:`FixedChunkBackend`  -- a CFS-like scheme with fixed-size chunks;
* :class:`VaryingChunkBackend`-- the proposed system with capacity-negotiated
  variable-size chunks.
"""

from __future__ import annotations

import abc
import bisect
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.baselines.cfs import CfsStore
from repro.core.storage import StorageSystem
from repro.grid.transfer import TransferCostModel
from repro.overlay.node import OverlayNode


@dataclass(frozen=True)
class BackendStoreOutcome:
    """Result of asking a back-end to place a new file."""

    success: bool
    chunk_sizes: List[int]
    lookups: int
    failure_reason: Optional[str] = None


class StorageBackend(abc.ABC):
    """Interface the interposition layer redirects file operations to."""

    #: Whether opening files through this back-end involves the interposition
    #: library at all (the whole-file scheme bypasses it entirely).
    uses_interposition: bool = True

    @abc.abstractmethod
    def create_file(self, filename: str, size: int) -> BackendStoreOutcome:
        """Allocate/stage a new file of ``size`` bytes."""

    @abc.abstractmethod
    def chunk_layout(self, filename: str) -> List[int]:
        """Chunk sizes of a stored file (for read planning)."""

    @abc.abstractmethod
    def delete_file(self, filename: str) -> None:
        """Remove a stored file, releasing its space."""


class WholeFileBackend(StorageBackend):
    """Original Condor I/O model: the entire file lives on one machine."""

    uses_interposition = False

    def __init__(self, target: OverlayNode) -> None:
        self.target = target
        self._files: Dict[str, int] = {}

    def create_file(self, filename: str, size: int) -> BackendStoreOutcome:
        if filename in self._files:
            return BackendStoreOutcome(False, [], 0, "file already exists")
        if not self.target.store_block(filename, size):
            return BackendStoreOutcome(
                False,
                [],
                0,
                f"machine {self.target.node_id!r} lacks {size} bytes of free space",
            )
        self._files[filename] = size
        return BackendStoreOutcome(True, [size], 0)

    def chunk_layout(self, filename: str) -> List[int]:
        if filename not in self._files:
            raise KeyError(filename)
        return [self._files[filename]]

    def delete_file(self, filename: str) -> None:
        size = self._files.pop(filename, None)
        if size is not None:
            self.target.remove_block(filename)


class FixedChunkBackend(StorageBackend):
    """CFS-like fixed-size chunk placement through the DHT."""

    def __init__(self, store: CfsStore) -> None:
        self.store = store

    def create_file(self, filename: str, size: int) -> BackendStoreOutcome:
        result = self.store.store_file(filename, size)
        return BackendStoreOutcome(
            success=result.success,
            chunk_sizes=self.store.chunk_sizes(filename) if result.success else [],
            lookups=result.lookups,
            failure_reason=result.failure_reason,
        )

    def chunk_layout(self, filename: str) -> List[int]:
        if filename not in self.store.files:  # an empty file is stored with no chunks
            raise KeyError(filename)
        return self.store.chunk_sizes(filename)

    def delete_file(self, filename: str) -> None:
        self.store.delete_file(filename)


class VaryingChunkBackend(StorageBackend):
    """The proposed system: capacity-negotiated variable-size chunks."""

    def __init__(self, storage: StorageSystem) -> None:
        self.storage = storage

    def create_file(self, filename: str, size: int) -> BackendStoreOutcome:
        result = self.storage.store_file(filename, size)
        if not result.success:
            return BackendStoreOutcome(False, [], result.lookups, result.failure_reason)
        stored = self.storage.files[filename]
        sizes = [chunk.size for chunk in stored.data_chunks()]
        return BackendStoreOutcome(True, sizes, result.lookups)

    def chunk_layout(self, filename: str) -> List[int]:
        stored = self.storage.files.get(filename)
        if stored is None:
            raise KeyError(filename)
        return [chunk.size for chunk in stored.data_chunks()]

    def delete_file(self, filename: str) -> None:
        self.storage.delete_file(filename)


@dataclass
class _OpenFile:
    """State of one open file descriptor."""

    filename: str
    size: int
    position: int = 0
    writable: bool = False
    #: Chunks whose storing node is already known (the lookup-module cache).
    cached_chunks: set = field(default_factory=set)


class InterposedIO:
    """The redirected POSIX-like interface used by grid applications."""

    def __init__(self, backend: StorageBackend, cost_model: Optional[TransferCostModel] = None) -> None:
        self.backend = backend
        self.cost = cost_model or TransferCostModel()
        self._descriptors: Dict[int, _OpenFile] = {}
        self._next_fd = 3  # 0-2 are conventionally stdin/stdout/stderr
        #: Accumulated simulated seconds across all calls.
        self.elapsed = 0.0
        self.lookup_count = 0
        self.call_count = 0
        self.bytes_read = 0
        self.bytes_written = 0

    # -- internal charging -----------------------------------------------------
    def _charge(self, seconds: float) -> None:
        self.elapsed += seconds

    def _charge_interposition(self) -> None:
        if self.backend.uses_interposition:
            self._charge(self.cost.interposition_seconds)

    def _charge_lookups(self, count: int) -> None:
        if count > 0 and self.backend.uses_interposition:
            self.lookup_count += count
            self._charge(self.cost.lookup_time(count))

    # -- POSIX-like API -----------------------------------------------------------
    def open(self, filename: str, size: int = 0, create: bool = False) -> int:
        """Open (or create) a file; returns a file descriptor.

        Creating a file triggers the back-end's placement (and its look-ups);
        opening an existing file locates its metadata with a single look-up.
        """
        self.call_count += 1
        self._charge_interposition()
        if create:
            outcome = self.backend.create_file(filename, size)
            self._charge_lookups(outcome.lookups)
            if not outcome.success:
                raise OSError(f"cannot create {filename!r}: {outcome.failure_reason}")
            file_size = size
        else:
            layout = self.backend.chunk_layout(filename)  # raises KeyError if unknown
            self._charge_lookups(1)
            file_size = sum(layout)
        fd = self._next_fd
        self._next_fd += 1
        self._descriptors[fd] = _OpenFile(filename=filename, size=file_size, writable=create)
        return fd

    def _descriptor(self, fd: int) -> _OpenFile:
        try:
            return self._descriptors[fd]
        except KeyError as error:
            raise OSError(f"bad file descriptor: {fd}") from error

    def _chunk_ends(self, handle: _OpenFile) -> List[int]:
        """Cumulative end offsets of the file's chunks (cached per descriptor)."""
        ends = getattr(handle, "_chunk_ends", None)
        if ends is None:
            layout = self.backend.chunk_layout(handle.filename)
            ends = []
            total = 0
            for chunk_size in layout:
                total += chunk_size
                ends.append(total)
            handle._chunk_ends = ends  # type: ignore[attr-defined]
        return ends

    def _chunks_for_span(self, handle: _OpenFile, offset: int, length: int) -> List[int]:
        """Chunk indices overlapped by [offset, offset+length)."""
        ends = self._chunk_ends(handle)
        if not ends or length <= 0:
            return []
        first = bisect.bisect_right(ends, offset)
        last = bisect.bisect_left(ends, offset + length)
        return list(range(first, min(last + 1, len(ends))))

    def read(self, fd: int, length: int) -> int:
        """Sequentially read ``length`` bytes; returns bytes actually read."""
        self.call_count += 1
        handle = self._descriptor(fd)
        length = max(0, min(length, handle.size - handle.position))
        if length == 0:
            return 0
        touched = self._chunks_for_span(handle, handle.position, length)
        misses = [index for index in touched if index not in handle.cached_chunks]
        self._charge_lookups(len(misses))
        handle.cached_chunks.update(misses)
        self._charge(self.cost.transfer_time(length))
        handle.position += length
        self.bytes_read += length
        return length

    def write(self, fd: int, length: int) -> int:
        """Sequentially write ``length`` bytes; returns bytes written."""
        self.call_count += 1
        handle = self._descriptor(fd)
        if not handle.writable:
            raise OSError(f"descriptor {fd} not open for writing")
        if length < 0:
            raise ValueError("length must be non-negative")
        if length == 0:
            return 0
        end = min(handle.position + length, handle.size)
        length = end - handle.position
        touched = self._chunks_for_span(handle, handle.position, length)
        misses = [index for index in touched if index not in handle.cached_chunks]
        # Chunk placement was already resolved at create time; writes only pay
        # per-chunk transfer setup latency plus the data movement itself.
        handle.cached_chunks.update(misses)
        self._charge(self.cost.transfer_time(length))
        self._charge(len(misses) * self.cost.per_transfer_latency)
        handle.position += length
        self.bytes_written += length
        return length

    def seek(self, fd: int, position: int) -> int:
        """Reposition the descriptor; returns the new position."""
        handle = self._descriptor(fd)
        if not 0 <= position <= handle.size:
            raise ValueError(f"seek position {position} outside file of size {handle.size}")
        handle.position = position
        return position

    def close(self, fd: int) -> None:
        """Close the descriptor, clearing its cache state for reuse."""
        self.call_count += 1
        self._descriptors.pop(fd, None)
