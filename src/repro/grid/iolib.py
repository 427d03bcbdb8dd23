"""I/O interposition layer over the storage schemes Table 4 compares.

The paper's implementation overrides ``open``/``read``/``write``/``close`` via
``LD_PRELOAD`` (259 lines of C) and forwards the calls to a lookup module that
maps the accessed byte range to the chunk holding it and to the node storing
that chunk, keeping a small cache of file-descriptor -> storing-node entries
so repeated accesses avoid p2p look-ups.  :class:`InterposedIO` reproduces
that layer against simulated time: every redirected call charges interposition
overhead, cache misses charge p2p look-ups, and data movement charges transfer
time, all through :class:`repro.grid.transfer.TransferCostModel`.

It redirects to a store directly -- anything speaking the store contract:
``store_file(name, size)`` answering a
:class:`~repro.overlay.node.StoreResult`, ``chunk_sizes(name)``, ``files``
and ``delete_file``.  Table 4 runs three: :class:`WholeFileStore` (the
original Condor model, defined here), a CFS store with fixed-size chunks and
the proposed system with capacity-negotiated variable-size chunks.  The
whole-file machine needs no DHT and no redirection, so a
:class:`WholeFileStore` is reached without interposition overhead or look-ups.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.grid.transfer import TransferCostModel
from repro.overlay.node import OverlayNode, StoreResult, store_refusal
from repro.overlay.validation import require_range


class WholeFileStore:
    """Original Condor I/O model: every file lives whole on one machine."""

    def __init__(self, target: OverlayNode) -> None:
        self.target = target
        #: filename -> size.
        self.files: Dict[str, int] = {}

    def store_file(self, filename: str, size: int) -> StoreResult:
        """Store the file on the target machine, or fail if it lacks the space."""
        refused = store_refusal(filename, size, self.files.__contains__)
        if refused is not None:
            return refused
        if not self.target.store_block(filename, size):
            return StoreResult(filename, size, False, 0, 0, 0, 0,
                               f"machine {self.target.node_id!r} lacks {size} bytes of free space")
        self.files[filename] = size
        return StoreResult(filename, size, True, size, 1, 1, 0)

    def chunk_sizes(self, filename: str) -> List[int]:
        """A stored file is one chunk, the whole file (``[]`` for an unknown name)."""
        return [self.files[filename]] if filename in self.files else []

    def delete_file(self, filename: str) -> bool:
        """Remove the file, releasing its space on the target machine."""
        size = self.files.pop(filename, None)
        if size is None:
            return False
        self.target.release_block(filename, size)
        return True


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

    def __init__(self, store, cost_model: Optional[TransferCostModel] = None) -> None:
        self.store = store
        #: The whole-file machine bypasses the interposition library entirely.
        self._interposed = not isinstance(store, WholeFileStore)
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
        if self._interposed:
            self._charge(self.cost.interposition_seconds)

    def _charge_lookups(self, count: int) -> None:
        if count > 0 and self._interposed:
            self.lookup_count += count
            self._charge(self.cost.lookup_time(count))

    # -- POSIX-like API -----------------------------------------------------------
    def open(self, filename: str, size: int = 0, create: bool = False) -> int:
        """Open (or create) a file; returns a file descriptor.

        Creating a file triggers the store's placement (and its look-ups);
        opening an existing file locates its metadata with a single look-up
        (``KeyError`` for a name the store does not hold).
        """
        self.call_count += 1
        self._charge_interposition()
        if create:
            result = self.store.store_file(filename, size)
            self._charge_lookups(result.lookups)
            if not result.success:
                raise OSError(f"cannot create {filename!r}: {result.failure_reason}")
            file_size = size
        else:
            if filename not in self.store.files:
                raise KeyError(filename)
            self._charge_lookups(1)
            file_size = sum(self.store.chunk_sizes(filename))
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
            layout = self.store.chunk_sizes(handle.filename)
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
        require_range("length", length, 0)
        length = min(length, handle.size - handle.position)
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
        require_range("length", length, 0)
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
        require_range("position", position, 0, handle.size, "[]")
        handle.position = position
        return position

    def close(self, fd: int) -> None:
        """Close the descriptor, clearing its cache state for reuse."""
        self.call_count += 1
        self._descriptor(fd)
        del self._descriptors[fd]
