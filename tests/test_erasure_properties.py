"""Property-based tests (hypothesis) for the erasure-coding substrate."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.erasure.null_code import NullCode
from repro.erasure.reed_solomon import ReedSolomonCode
from repro.erasure.xor_code import XorParityCode
from repro.erasure.online_code import OnlineCode, OnlineCodeParameters

payloads = st.binary(min_size=0, max_size=4096)
block_counts = st.integers(min_value=1, max_value=12)


@given(data=payloads, n_blocks=block_counts)
@settings(max_examples=60, deadline=None)
def test_null_code_round_trip_property(data: bytes, n_blocks: int):
    code = NullCode()
    encoded = code.encode(data, n_blocks)
    assert code.decode(encoded, {b.index: b.data for b in encoded.blocks}) == data
    assert encoded.encoded_size >= len(data)


@given(data=payloads, n_blocks=block_counts, group=st.integers(min_value=1, max_value=4))
@settings(max_examples=60, deadline=None)
def test_xor_round_trip_property(data: bytes, n_blocks: int, group: int):
    code = XorParityCode(group_size=group)
    encoded = code.encode(data, n_blocks)
    assert code.decode(encoded, {b.index: b.data for b in encoded.blocks}) == data


@given(
    data=st.binary(min_size=1, max_size=2048),
    n_blocks=st.integers(min_value=2, max_value=10),
    missing=st.data(),
)
@settings(max_examples=60, deadline=None)
def test_xor_single_loss_always_recoverable(data: bytes, n_blocks: int, missing):
    code = XorParityCode(group_size=2)
    encoded = code.encode(data, n_blocks)
    index = missing.draw(st.integers(min_value=0, max_value=len(encoded.blocks) - 1))
    available = {b.index: b.data for b in encoded.blocks}
    del available[index]
    assert code.decode(encoded, available) == data


@given(
    data=st.binary(min_size=1, max_size=2048),
    n_blocks=st.integers(min_value=2, max_value=8),
    parity=st.integers(min_value=1, max_value=4),
    missing=st.data(),
)
@settings(max_examples=40, deadline=None)
def test_reed_solomon_recovers_up_to_parity_losses(data: bytes, n_blocks: int, parity: int, missing):
    code = ReedSolomonCode(parity_blocks=parity)
    encoded = code.encode(data, n_blocks)
    total = len(encoded.blocks)
    lose = missing.draw(
        st.lists(st.integers(min_value=0, max_value=total - 1), max_size=parity, unique=True)
    )
    available = {b.index: b.data for b in encoded.blocks if b.index not in lose}
    assert code.decode(encoded, available) == data


@given(data=st.binary(min_size=1, max_size=2048), n_blocks=st.integers(min_value=1, max_value=24))
@settings(max_examples=30, deadline=None)
def test_online_code_round_trip_property(data: bytes, n_blocks: int):
    code = OnlineCode(OnlineCodeParameters(epsilon=0.25, q=3, quality=1.3), seed=5)
    encoded = code.encode(data, n_blocks)
    assert code.decode(encoded, {b.index: b.data for b in encoded.blocks}) == data


@given(n_blocks=st.integers(min_value=1, max_value=512))
@settings(max_examples=60, deadline=None)
def test_spec_invariants_hold_for_all_codes(n_blocks: int):
    codes = [
        NullCode(),
        XorParityCode(group_size=2),
        OnlineCode(OnlineCodeParameters(epsilon=0.05, q=3)),
        ReedSolomonCode(parity_blocks=2) if n_blocks <= 200 else NullCode(),
    ]
    for code in codes:
        spec = code.spec(n_blocks)
        assert spec.output_blocks >= spec.input_blocks == n_blocks
        assert 0 <= spec.loss_tolerance < spec.output_blocks
        assert spec.required_blocks() + spec.loss_tolerance == spec.output_blocks
