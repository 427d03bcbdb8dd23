"""Unit tests for the chunk codec wrapper and the code registry."""

from __future__ import annotations

import numpy as np
import pytest

from repro.erasure.base import DecodingError
from repro.erasure.chunk_codec import ChunkCodec, get_code, registry
from repro.erasure.null_code import NullCode
from repro.erasure.online_code import OnlineCode
from repro.erasure.reed_solomon import ReedSolomonCode
from repro.erasure.xor_code import XorParityCode


def payload(size: int, seed: int = 0) -> bytes:
    return np.random.default_rng(seed).integers(0, 256, size=size, dtype=np.uint8).tobytes()


def test_registry_contains_all_paper_codes():
    assert set(registry) == {"null", "xor", "online", "reed-solomon"}
    assert isinstance(get_code("null"), NullCode)
    assert isinstance(get_code("xor"), XorParityCode)
    assert isinstance(get_code("online"), OnlineCode)
    assert isinstance(get_code("reed-solomon"), ReedSolomonCode)


def test_get_code_unknown_name():
    with pytest.raises(KeyError):
        get_code("turbo")


def test_blocks_per_chunk_validation():
    with pytest.raises(ValueError):
        ChunkCodec(NullCode(), blocks_per_chunk=0)


def test_max_chunk_size_matches_paper_example():
    codec = ChunkCodec(XorParityCode(group_size=2), blocks_per_chunk=2)
    assert codec.max_chunk_size(10 * (1 << 20)) == 20 * (1 << 20)
    assert codec.max_chunk_size(0) == 0


def test_encoded_block_size_and_count():
    codec = ChunkCodec(XorParityCode(group_size=2), blocks_per_chunk=2)
    assert codec.encoded_block_count() == 3
    assert codec.encoded_block_size(100) == 50
    assert codec.encoded_block_size(101) == 51
    assert codec.encoded_block_size(0) == 0


def test_encode_decode_round_trip_through_codec():
    codec = ChunkCodec(XorParityCode(group_size=2), blocks_per_chunk=4)
    data = payload(30_000, seed=1)
    encoded = codec.encode(data)
    available = {b.index: b.data for b in encoded.blocks}
    assert codec.decode(encoded, available) == data


def test_measure_reports_sizes_and_times():
    codec = ChunkCodec(XorParityCode(group_size=2), blocks_per_chunk=4)
    data = payload(50_000, seed=2)
    measurement = codec.measure(data)
    assert measurement.code_name == "xor"
    assert measurement.chunk_size == 50_000
    assert measurement.encoded_size > 50_000
    assert measurement.size_overhead == pytest.approx(0.5, rel=0.01)
    assert measurement.encode_seconds >= 0.0
    assert measurement.decode_seconds >= 0.0


def test_measure_with_loss_subset_exercises_recovery():
    codec = ChunkCodec(ReedSolomonCode(parity_blocks=2), blocks_per_chunk=4)
    data = payload(10_000, seed=3)
    measurement = codec.measure(data, decode_subset=4)
    assert measurement.encoded_size == pytest.approx(len(data) * 6 / 4, rel=0.01)


def test_spec_passthrough():
    codec = ChunkCodec(ReedSolomonCode(parity_blocks=2), blocks_per_chunk=6)
    spec = codec.spec()
    assert spec.input_blocks == 6
    assert spec.output_blocks == 8
    assert spec.required_blocks() == 6


def test_measure_cold_clears_cached_structures():
    from repro.erasure.chunk_codec import clear_coding_caches
    from repro.erasure.online_code import OnlineCode, OnlineCodeParameters, code_graph

    codec = ChunkCodec(
        OnlineCode(OnlineCodeParameters(epsilon=0.2, q=3, quality=1.25), seed=2),
        blocks_per_chunk=8,
    )
    data = payload(8_000, seed=4)
    warm = codec.measure(data)
    assert code_graph.cache_info().currsize > 0
    cold = codec.measure(data, cold=True)
    # Cold and warm measurements decode the same bytes either way.
    assert cold.encoded_size == warm.encoded_size
    clear_coding_caches()
    assert code_graph.cache_info().currsize == 0


# -- malformed blocks: a typed error at the edge, never garbage ---------------------
WRONG_LENGTHS = {
    "short": lambda block: block[:-5],
    "long": lambda block: bytes(block) + bytes(50),
    "empty": lambda block: b"",
}


@pytest.mark.parametrize("mutation", sorted(WRONG_LENGTHS))
@pytest.mark.parametrize("name", ["online", "xor", "reed-solomon", "null"])
@pytest.mark.parametrize("drop_first", [False, True])
def test_wrong_length_block_raises_decoding_error(name, mutation, drop_first):
    """A block that is not ``chunk.block_size`` long must not be zero-padded
    into a wrong answer or trip a bare NumPy shape error."""
    code = get_code(name)
    data = payload(16 * 1024, seed=3)
    encoded = code.encode(data, 16)
    available = {block.index: block.data for block in encoded.blocks}
    if drop_first and name != "null":  # the erasure-decoding paths, too
        del available[0]
    victim = sorted(available)[3]
    available[victim] = WRONG_LENGTHS[mutation](available[victim])
    with pytest.raises(DecodingError) as error:
        code.decode(encoded, available)
    message = str(error.value)
    assert f"block {victim} " in message
    assert f"{len(available[victim])} bytes" in message
    assert f"block_size is {encoded.block_size}" in message
