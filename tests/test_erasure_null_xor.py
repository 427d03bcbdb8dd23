"""Unit tests for the NULL and XOR parity codes."""

from __future__ import annotations

import numpy as np
import pytest

from repro.erasure.base import DecodingError, split_into_matrix
from repro.erasure.null_code import NullCode
from repro.erasure.xor_code import XorParityCode


def payload(size: int, seed: int = 0) -> bytes:
    return np.random.default_rng(seed).integers(0, 256, size=size, dtype=np.uint8).tobytes()


# -- helpers ------------------------------------------------------------------------
def test_split_into_matrix_pads_and_covers():
    matrix = split_into_matrix(b"abcdefg", 3)
    assert matrix.shape == (3, 3)
    assert matrix.tobytes() == b"abcdefg\0\0"


def test_split_into_matrix_empty_data():
    assert split_into_matrix(b"", 4).shape == (4, 1)


def test_split_into_matrix_rejects_zero_blocks():
    with pytest.raises(ValueError):
        split_into_matrix(b"xy", 0)


# -- NULL code ------------------------------------------------------------------------
def test_null_round_trip():
    code = NullCode()
    data = payload(10_000)
    encoded = code.encode(data, 8)
    assert len(encoded.blocks) == 8
    restored = code.decode(encoded, {b.index: b.data for b in encoded.blocks})
    assert restored == data


def test_null_cannot_tolerate_any_loss():
    code = NullCode()
    data = payload(1000)
    encoded = code.encode(data, 4)
    available = {b.index: b.data for b in encoded.blocks}
    del available[2]
    with pytest.raises(DecodingError):
        code.decode(encoded, available)


def test_null_spec_zero_overhead():
    spec = NullCode().spec(6)
    assert spec.output_blocks == 6
    assert spec.loss_tolerance == 0
    assert spec.size_overhead == 0.0
    assert spec.required_blocks() == 6


# -- XOR parity code ----------------------------------------------------------------------
def test_xor_round_trip_all_blocks():
    code = XorParityCode(group_size=2)
    data = payload(12_345, seed=1)
    encoded = code.encode(data, 4)
    # 4 data blocks in 2 groups -> 6 encoded blocks.
    assert len(encoded.blocks) == 6
    restored = code.decode(encoded, {b.index: b.data for b in encoded.blocks})
    assert restored == data


@pytest.mark.parametrize("missing_index", [0, 1, 2, 3, 4, 5])
def test_xor_recovers_any_single_loss(missing_index):
    code = XorParityCode(group_size=2)
    data = payload(8_192, seed=2)
    encoded = code.encode(data, 4)
    available = {b.index: b.data for b in encoded.blocks}
    del available[missing_index]
    assert code.decode(encoded, available) == data


def test_xor_fails_on_two_losses_in_same_group():
    code = XorParityCode(group_size=2)
    data = payload(4_096, seed=3)
    encoded = code.encode(data, 4)
    available = {b.index: b.data for b in encoded.blocks}
    # Blocks 0, 1 and 2 form group one (data, data, parity): drop two of them.
    del available[0]
    del available[1]
    with pytest.raises(DecodingError):
        code.decode(encoded, available)


def test_xor_recovers_one_loss_per_group_simultaneously():
    code = XorParityCode(group_size=2)
    data = payload(9_000, seed=4)
    encoded = code.encode(data, 4)
    available = {b.index: b.data for b in encoded.blocks}
    del available[0]   # group one data block
    del available[5]   # group two parity block
    assert code.decode(encoded, available) == data


def test_xor_odd_block_count_creates_partial_group():
    code = XorParityCode(group_size=2)
    data = payload(5_000, seed=5)
    encoded = code.encode(data, 5)
    # groups: (2 data + parity), (2 data + parity), (1 data + parity) = 8 blocks.
    assert len(encoded.blocks) == 8
    available = {b.index: b.data for b in encoded.blocks}
    del available[6]  # last data block, recoverable from its parity
    assert code.decode(encoded, available) == data


def test_xor_spec_overhead_fifty_percent():
    spec = XorParityCode(group_size=2).spec(4)
    assert spec.output_blocks == 6
    assert spec.size_overhead == pytest.approx(0.5)
    assert spec.loss_tolerance == 1


def test_xor_group_size_validation():
    with pytest.raises(ValueError):
        XorParityCode(group_size=0)


def test_xor_chunk_size_negotiation_matches_paper_example():
    # Paper, Section 4.3: a 10 MB maximum block under the (2,3) XOR code allows
    # a 20 MB chunk.
    code = XorParityCode(group_size=2)
    assert code.chunk_size_for_block_size(10 * (1 << 20), 2) == 20 * (1 << 20)


def test_xor_empty_payload_round_trip():
    code = XorParityCode(group_size=2)
    encoded = code.encode(b"", 2)
    assert code.decode(encoded, {b.index: b.data for b in encoded.blocks}) == b""
