"""Unit tests for the chunk/block naming convention."""

from __future__ import annotations

import pytest

from repro.core import naming
from repro.overlay.ids import key_for


def test_chunk_name_matches_paper_example():
    # "testImageFile_2 represents the second chunk of the file testImageFile"
    assert naming.chunk_name("testImageFile", 2) == "testImageFile_2"


def test_block_name_layout():
    assert naming.block_name("scan", 3, 7) == "scan_3_7"


def test_cat_name_suffix():
    assert naming.cat_name("weather.dat") == "weather.dat.CAT"


def test_one_based_numbering_enforced():
    with pytest.raises(ValueError):
        naming.chunk_name("f", 0)
    with pytest.raises(ValueError):
        naming.block_name("f", 1, 0)


def test_a_block_key_is_the_sha1_of_its_name():
    import hashlib

    assert key_for(naming.block_name("f", 1, 1)) == int.from_bytes(
        hashlib.sha1(b"f_1_1").digest(), "big")


def test_distinct_block_names_get_distinct_keys():
    keys = {key_for(naming.block_name("f", c, e)) for c in range(1, 5) for e in range(1, 5)}
    assert len(keys) == 16
