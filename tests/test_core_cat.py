"""Unit tests for the Chunk Allocation Table."""

from __future__ import annotations

import pytest

from repro.core.cat import CatEntry, ChunkAllocationTable


def make_cat() -> ChunkAllocationTable:
    # Mirrors Figure 3: six chunks, chunk #5 empty, ~100 MB total.
    sizes = [5242880, 20840448, 26214400, 33816576, 0, 18742272]
    return ChunkAllocationTable.from_chunk_sizes("bigfile", sizes)


def test_from_chunk_sizes_builds_contiguous_ranges():
    cat = make_cat()
    assert len(cat.chunk_sizes()) == 6
    assert cat[0].start == 0 and cat[0].end == 5242880
    assert cat[1].start == cat[0].end
    assert cat.file_size == sum(cat.chunk_sizes())


def test_zero_sized_chunk_is_empty_entry():
    cat = make_cat()
    assert cat[4].is_empty
    assert cat[4].start == cat[4].end
    assert sum(not entry.is_empty for entry in cat) == 5


def test_chunk_for_offset_finds_owner():
    cat = make_cat()
    assert [entry.chunk_no for entry in cat.chunks_for_range(0, 1)] == [1]
    assert [entry.chunk_no for entry in cat.chunks_for_range(5242880, 1)] == [2]
    assert [entry.chunk_no for entry in cat.chunks_for_range(cat.file_size - 1, 1)] == [6]


def test_chunk_for_offset_out_of_range():
    cat = make_cat()
    with pytest.raises(IndexError):
        cat.chunks_for_range(cat.file_size, 1)
    with pytest.raises(IndexError):
        cat.chunks_for_range(-1, 1)


def test_chunks_for_range_partial_access():
    cat = make_cat()
    touched = cat.chunks_for_range(5242880 - 10, 20)
    assert [entry.chunk_no for entry in touched] == [1, 2]
    whole = cat.chunks_for_range(0, cat.file_size)
    assert [entry.chunk_no for entry in whole if not entry.is_empty] == [1, 2, 3, 4, 6]


def test_chunks_for_range_validation():
    cat = make_cat()
    assert cat.chunks_for_range(0, 0) == []
    with pytest.raises(ValueError):
        cat.chunks_for_range(0, -1)
    with pytest.raises(IndexError):
        cat.chunks_for_range(1, cat.file_size)


def test_serialize_matches_paper_style_and_round_trips():
    cat = make_cat()
    text = cat.serialize()
    assert text.splitlines()[0] == "(1) 0,5242880"
    restored = ChunkAllocationTable.deserialize("bigfile", text)
    assert restored == cat
    assert restored.serialized_size == len(text.encode("utf-8"))


def test_deserialize_rejects_malformed_lines():
    with pytest.raises(ValueError):
        ChunkAllocationTable.deserialize("x", "(1) not,numbers")
    with pytest.raises(ValueError):
        ChunkAllocationTable.deserialize("x", "garbage")


def test_validation_rejects_gaps_and_bad_numbering():
    with pytest.raises(ValueError):
        ChunkAllocationTable("f", [CatEntry(1, 0, 10), CatEntry(2, 11, 20)])
    with pytest.raises(ValueError):
        ChunkAllocationTable("f", [CatEntry(2, 0, 10)])
    with pytest.raises(ValueError):
        CatEntry(1, 5, 4)
    with pytest.raises(ValueError):
        ChunkAllocationTable.from_chunk_sizes("f", [10, -1])


def test_empty_cat():
    cat = ChunkAllocationTable.from_chunk_sizes("empty", [])
    assert cat.file_size == 0
    assert cat.chunk_sizes() == []
    assert cat.serialize() == ""
    assert ChunkAllocationTable.deserialize("empty", "") == cat
