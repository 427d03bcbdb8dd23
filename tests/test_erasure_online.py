"""Unit tests for the rateless online code."""

from __future__ import annotations

import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.erasure.base import DecodingError
from repro.erasure.online_code import OnlineCode, OnlineCodeParameters, code_graph


def payload(size: int, seed: int = 0) -> bytes:
    return np.random.default_rng(seed).integers(0, 256, size=size, dtype=np.uint8).tobytes()


@pytest.fixture
def code() -> OnlineCode:
    # A generous epsilon keeps small-system decoding robust in unit tests; the
    # paper's epsilon=0.01 configuration is exercised by the Table 2 benchmark.
    return OnlineCode(OnlineCodeParameters(epsilon=0.2, q=3, quality=1.25), seed=7)


def test_parameters_validation():
    with pytest.raises(ValueError):
        OnlineCodeParameters(epsilon=0.0)
    with pytest.raises(ValueError):
        OnlineCodeParameters(q=0)
    with pytest.raises(ValueError):
        OnlineCodeParameters(quality=0.5)


def test_degree_distribution_is_normalised():
    params = OnlineCodeParameters(epsilon=0.01, q=3)
    cdf = params.rho_cdf()
    assert cdf[-1] == pytest.approx(1.0)
    assert cdf[0] >= 0 and (np.diff(cdf) >= 0).all()
    assert len(cdf) == OnlineCodeParameters.max_degree_for(params.epsilon)


def test_auxiliary_count_formula():
    params = OnlineCodeParameters(epsilon=0.01, q=3)
    assert params.auxiliary_count(4096) == int(np.ceil(0.55 * 3 * 0.01 * 4096))
    assert params.auxiliary_count(1) == 1


def test_round_trip_with_all_blocks(code: OnlineCode):
    data = payload(20_000, seed=1)
    encoded = code.encode(data, 32)
    restored = code.decode(encoded, {b.index: b.data for b in encoded.blocks})
    assert restored == data


def test_round_trip_various_sizes(code: OnlineCode):
    for size, blocks in ((1, 1), (100, 4), (4096, 16), (65_537, 64)):
        data = payload(size, seed=size)
        encoded = code.encode(data, blocks)
        restored = code.decode(encoded, {b.index: b.data for b in encoded.blocks})
        assert restored == data, f"failed for size={size} blocks={blocks}"


def test_decoding_survives_block_losses(code: OnlineCode):
    data = payload(16_384, seed=2)
    encoded = code.encode(data, 32, output_blocks=80)
    blocks = {b.index: b.data for b in encoded.blocks}
    # Drop 15% of the encoded blocks; the exact GF(2) fallback guarantees the
    # remaining blocks are enough whenever they span the composite space.
    rng = np.random.default_rng(3)
    for index in rng.choice(sorted(blocks), size=12, replace=False):
        del blocks[int(index)]
    assert code.decode(encoded, blocks) == data


def test_decoding_fails_with_far_too_few_blocks(code: OnlineCode):
    data = payload(8_192, seed=4)
    encoded = code.encode(data, 32)
    few = {b.index: b.data for b in encoded.blocks[:8]}  # far fewer than n
    with pytest.raises(DecodingError):
        code.decode(encoded, few)


def test_unknown_block_index_rejected(code: OnlineCode):
    data = payload(1_000, seed=5)
    encoded = code.encode(data, 8)
    bogus = {10_000: encoded.blocks[0].data}
    with pytest.raises(DecodingError):
        code.decode(encoded, bogus)


def test_encoding_is_deterministic_for_seed():
    params = OnlineCodeParameters(epsilon=0.2, q=3)
    data = payload(5_000, seed=6)
    one = OnlineCode(params, seed=11).encode(data, 16)
    two = OnlineCode(params, seed=11).encode(data, 16)
    assert [b.data for b in one.blocks] == [b.data for b in two.blocks]
    three = OnlineCode(params, seed=12).encode(data, 16)
    assert [b.data for b in one.blocks] != [b.data for b in three.blocks]


def test_rateless_generate_additional_blocks(code: OnlineCode):
    data = payload(10_000, seed=7)
    encoded = code.encode(data, 16)
    extra = code.generate_additional_blocks(
        encoded, {b.index: b.data for b in encoded.blocks}, 10
    )
    assert len(extra) == 10
    first_new = int(encoded.metadata["output_blocks"])
    assert [b.index for b in extra] == list(range(first_new, first_new + 10))
    # Old blocks plus the tail of new ones still decode (rateless property).
    available = {b.index: b.data for b in encoded.blocks[10:]}
    available.update({b.index: b.data for b in extra})
    # Rebuild a chunk description covering the extended stream for decoding.
    from dataclasses import replace

    extended = replace(
        encoded,
        blocks=encoded.blocks + extra,
        metadata={**encoded.metadata, "output_blocks": first_new + 10},
    )
    assert code.decode(extended, available) == data


@given(
    n_blocks=st.integers(min_value=1, max_value=64),
    block_bytes=st.integers(min_value=1, max_value=40),
    short=st.integers(min_value=0, max_value=63),
    epsilon=st.sampled_from([0.01, 0.25]),
    seed=st.integers(min_value=0, max_value=1000),
    drop=st.lists(st.integers(min_value=0, max_value=1 << 16), max_size=12),
    count=st.integers(min_value=1, max_value=8),
)
# Peeling stalls and the residual solver finishes the program; the minted
# blocks read composites it solved (blocks of 5 bytes, 98-byte chunk, 2 lost).
@example(n_blocks=23, block_bytes=5, short=40, epsilon=0.01, seed=776, drop=[37885, 3899],
         count=4)
@settings(deadline=None)
def test_minted_blocks_match_the_encoder_oracle(
    n_blocks, block_bytes, short, epsilon, seed, drop, count
):
    """A minted block equals the block the encoder would have produced at
    that stream index, byte for byte, from any available set that decodes;
    from any other the mint raises the decoder's own ``DecodingError``."""
    size = max(1, n_blocks * block_bytes - short % n_blocks)  # often not divisible by n or 8
    code = OnlineCode(OnlineCodeParameters(epsilon=epsilon, q=3), seed=seed)
    data = np.random.default_rng(seed).bytes(size)
    encoded = code.encode(data, n_blocks)
    available = {block.index: block.data for block in encoded.blocks}
    for position in drop:
        del available[sorted(available)[position % len(available)]]
    try:
        assert code.decode(encoded, available) == data
    except DecodingError as stalled:
        with pytest.raises(DecodingError, match=re.escape(str(stalled))):
            code.generate_additional_blocks(encoded, available, count)
        return
    graph = code_graph(epsilon, 3, n_blocks, int(encoded.metadata["chunk_seed"]))
    assert (graph.decode_program(tuple(sorted(available))).var_rows >= 0).all()

    start = len(encoded.blocks)
    oracle = code.encode(data, n_blocks, output_blocks=start + count).blocks[start:]
    minted = code.generate_additional_blocks(encoded, available, count)
    assert [(b.index, b.data) for b in minted] == [(b.index, b.data) for b in oracle]
    assert [b.index for b in minted] == list(range(start, start + count))


def test_generate_additional_blocks_zero_count(code: OnlineCode):
    data = payload(100, seed=8)
    encoded = code.encode(data, 4)
    available = {b.index: b.data for b in encoded.blocks}
    assert code.generate_additional_blocks(encoded, available, 0) == []


def test_storage_overhead_is_modest_for_paper_parameters():
    code = OnlineCode(OnlineCodeParameters(epsilon=0.01, q=3), seed=0)
    spec = code.spec(4096)
    # Table 2 reports ~3 % size overhead for the online code.
    assert 0.01 < spec.size_overhead < 0.08
    assert spec.output_blocks > 4096


def test_default_output_blocks_scale_with_quality():
    lean = OnlineCode(OnlineCodeParameters(epsilon=0.01, q=3, quality=1.0))
    fat = OnlineCode(OnlineCodeParameters(epsilon=0.01, q=3, quality=1.2))
    assert fat.default_output_blocks(1000) > lean.default_output_blocks(1000)


def test_empty_payload_round_trip(code: OnlineCode):
    encoded = code.encode(b"", 4)
    assert code.decode(encoded, {b.index: b.data for b in encoded.blocks}) == b""
