"""The Chunk Allocation Table (CAT).

Because chunk sizes vary, there is no closed-form mapping from a file offset
to the chunk holding it.  The CAT (Section 4.2, Figure 3) records, per chunk,
the byte range of the file it contains as ``(min_offset, max_offset)`` pairs;
zero-sized chunks appear as empty ranges.  The CAT is created when a file is
stored, stored in the DHT under ``filename.CAT`` and replicated on neighbour
nodes; it can also be reconstructed by probing chunk names one by one
(Section 4.4), which :meth:`repro.core.recovery.RecoveryManager.rebuild_cat`
implements.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.overlay.validation import require_range


@dataclass(frozen=True)
class CatEntry:
    """One CAT row: chunk number (1-based) and the half-open byte range [start, end)."""

    chunk_no: int
    start: int
    end: int

    def __post_init__(self) -> None:
        require_range("chunk_no", self.chunk_no, 1)
        require_range("start", self.start, 0)
        require_range("end", self.end, self.start)

    @property
    def size(self) -> int:
        """Number of file bytes held by the chunk (zero for empty chunks)."""
        return self.end - self.start

    @property
    def is_empty(self) -> bool:
        """Whether this is a zero-sized (retry placeholder) chunk."""
        return self.size == 0


class ChunkAllocationTable:
    """Ordered list of :class:`CatEntry` rows for one file."""

    def __init__(self, filename: str, entries: Sequence[CatEntry] = ()) -> None:
        self.filename = filename
        self._entries: List[CatEntry] = list(entries)
        self._validate()

    def _validate(self) -> None:
        expected_start = 0
        expected_no = 1
        for entry in self._entries:
            if entry.chunk_no != expected_no:
                raise ValueError(
                    f"CAT for {self.filename!r}: expected chunk {expected_no}, got {entry.chunk_no}"
                )
            if entry.start != expected_start:
                raise ValueError(
                    f"CAT for {self.filename!r}: chunk {entry.chunk_no} starts at {entry.start}, "
                    f"expected {expected_start}"
                )
            expected_start = entry.end
            expected_no += 1

    # -- construction -----------------------------------------------------------
    @classmethod
    def from_chunk_sizes(cls, filename: str, sizes: Sequence[int]) -> "ChunkAllocationTable":
        """Build a CAT from the ordered list of chunk sizes (zero sizes allowed)."""
        entries: List[CatEntry] = []
        offset = 0
        for index, size in enumerate(sizes, start=1):
            require_range("chunk size", size, 0)
            entries.append(CatEntry(chunk_no=index, start=offset, end=offset + int(size)))
            offset += int(size)
        return cls(filename, entries)

    # -- container protocol -------------------------------------------------------
    def __getitem__(self, index: int) -> CatEntry:
        return self._entries[index]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ChunkAllocationTable):
            return NotImplemented
        return self.filename == other.filename and self._entries == other._entries

    # -- queries --------------------------------------------------------------------
    @property
    def file_size(self) -> int:
        """Total file size recorded by the CAT."""
        return self._entries[-1].end if self._entries else 0

    def chunks_for_range(self, offset: int, length: int) -> List[CatEntry]:
        """All chunks overlapping the byte range ``[offset, offset + length)``.

        This is the lookup the paper performs to serve partial-file reads:
        "only the chunk(s) containing that portion are retrieved".
        """
        require_range("length", length, 0)
        if length == 0:
            return []
        end = offset + length
        if not (0 <= offset and end <= self.file_size):  # NaN fails too
            raise IndexError(f"range [{offset}, {end}) outside file of size {self.file_size}")
        return [entry for entry in self._entries if entry.end > offset and entry.start < end]

    # -- serialisation -----------------------------------------------------------------
    def serialize(self) -> str:
        """Render the CAT in the paper's one-line-per-chunk textual format (Figure 3)."""
        lines = [f"({entry.chunk_no}) {entry.start},{entry.end}" for entry in self._entries]
        return "\n".join(lines) + ("\n" if lines else "")

    @classmethod
    def deserialize(cls, filename: str, text: str) -> "ChunkAllocationTable":
        """Parse the textual format produced by :meth:`serialize`."""
        entries: List[CatEntry] = []
        for raw_line in text.splitlines():
            line = raw_line.strip()
            if not line:
                continue
            try:
                label, ranges = line.split(")", 1)
                chunk_no = int(label.lstrip("("))
                start_text, end_text = ranges.strip().split(",")
                entries.append(CatEntry(chunk_no=chunk_no, start=int(start_text), end=int(end_text)))
            except (ValueError, IndexError) as error:
                raise ValueError(f"malformed CAT line: {raw_line!r}") from error
        return cls(filename, entries)

    @property
    def serialized_size(self) -> int:
        """Bytes the serialised CAT occupies (used when storing it in the DHT)."""
        return len(self.serialize().encode("utf-8"))

    def chunk_sizes(self) -> List[int]:
        """Ordered chunk sizes (including zeros)."""
        return [entry.size for entry in self._entries]
