"""Cross-version determinism tests for the erasure-coding substrate.

The vectorized kernel rewired every code's encode/decode path, so these tests
pin the behaviour down hard:

* **Golden fingerprints** — SHA-256 of the concatenated encoded payloads for
  fixed seeds, per code.  If the stream derivation (graph hashing, degree
  sampling, Cauchy construction, ...) ever changes, these fail and the
  ``stream_version`` chunk metadata must be bumped instead.
* **Legacy format compatibility** — chunks produced by the preserved seed
  implementation (stream version 1, per-index RNG graphs) must decode
  bit-for-bit on the new kernel, and the new kernel's version-1 encoder must
  reproduce the seed encoder byte-for-byte.
* **Round-trip properties** — ``decode(encode(x))`` over random sizes, block
  counts and random surviving-block subsets for all four codes.
"""

from __future__ import annotations

import hashlib
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.erasure.base import DecodingError
from repro.erasure.null_code import NullCode
from repro.erasure.online_code import (
    STREAM_VERSION,
    OnlineCode,
    OnlineCodeParameters,
    clear_code_graph_cache,
)
from repro.erasure.reed_solomon import ReedSolomonCode
from repro.erasure.xor_code import XorParityCode
from repro.erasure._legacy import LegacyOnlineCode

GOLDEN_PARAMS = OnlineCodeParameters(epsilon=0.2, q=3, quality=1.25)


def payload(size: int, seed: int) -> bytes:
    return np.random.default_rng(seed).integers(0, 256, size=size, dtype=np.uint8).tobytes()


def fingerprint(chunk) -> str:
    digest = hashlib.sha256()
    for block in chunk.blocks:
        digest.update(block.data)
    return digest.hexdigest()[:16]


GOLDEN_DATA = payload(20_000, 42)

#: Golden values computed at the introduction of stream version 2.  A change
#: here is a wire-format change: bump STREAM_VERSION and add a legacy test.
GOLDEN_FINGERPRINTS = {
    "online-v2": "6107e4401f223ec7",
    "online-v1": "c3c2569e88701b24",
    "reed-solomon": "109be2ae0d850335",
    "xor": "9a2f3ff4733da00d",
    "null": "a91f7734d72165f1",
}


# -- golden fingerprints ---------------------------------------------------------
def test_online_v2_encoded_bytes_are_golden():
    code = OnlineCode(GOLDEN_PARAMS, seed=7)
    encoded = code.encode(GOLDEN_DATA, 32)
    assert encoded.metadata["stream_version"] == STREAM_VERSION == 2
    assert fingerprint(encoded) == GOLDEN_FINGERPRINTS["online-v2"]
    assert len(encoded.blocks) == 81


def test_online_v2_decode_fingerprint_is_stable():
    code = OnlineCode(GOLDEN_PARAMS, seed=7)
    encoded = code.encode(GOLDEN_DATA, 32)
    available = {block.index: block.data for block in encoded.blocks}
    assert code.decode(encoded, available) == GOLDEN_DATA
    # The peeling-schedule shape is part of determinism: same seed, same
    # graph, same number of update events processed.
    assert code.last_decode_stats["events"] == 336
    assert code.last_decode_stats["rounds"] == 5


def test_online_wide_row_bytes_are_golden():
    """64 blocks x 16 KB: rows wide enough for the streaming XOR kernel.

    Digests recorded from the grouped-gather kernel before the streaming one
    existed, so this pins the two to the same bytes (the goldens above all
    have narrow rows).
    """
    data = payload(64 * 16384, 43)
    code = OnlineCode(OnlineCodeParameters(epsilon=0.01, q=3), seed=7)
    encoded = code.encode(data, 64)
    assert (len(encoded.blocks), encoded.block_size) == (83, 16384)
    assert fingerprint(encoded) == "925ed170e0827212"

    available = {block.index: block.data for block in encoded.blocks}
    for lost in (0, 5, 17, 33, 64, 80):
        del available[lost]
    decoded = code.decode(encoded, available)
    assert hashlib.sha256(decoded).hexdigest()[:16] == "ad3f106e038890b6"
    assert decoded == data
    assert code.last_decode_stats == {"rounds": 14, "events": 968}

    extra = code.generate_additional_blocks(encoded, data, 3)
    assert [block.index for block in extra] == [83, 84, 85]
    assert fingerprint(replace(encoded, blocks=extra)) == "db7574c990225787"


def test_other_codes_encoded_bytes_are_golden():
    assert fingerprint(ReedSolomonCode(parity_blocks=3).encode(GOLDEN_DATA, 8)) == (
        GOLDEN_FINGERPRINTS["reed-solomon"]
    )
    assert fingerprint(XorParityCode(group_size=2).encode(GOLDEN_DATA, 8)) == (
        GOLDEN_FINGERPRINTS["xor"]
    )
    assert fingerprint(NullCode().encode(GOLDEN_DATA, 8)) == GOLDEN_FINGERPRINTS["null"]


def test_encoding_survives_cache_clears():
    before = fingerprint(OnlineCode(GOLDEN_PARAMS, seed=7).encode(GOLDEN_DATA, 32))
    clear_code_graph_cache()
    after = fingerprint(OnlineCode(GOLDEN_PARAMS, seed=7).encode(GOLDEN_DATA, 32))
    assert before == after == GOLDEN_FINGERPRINTS["online-v2"]


# -- legacy (stream version 1) compatibility -------------------------------------
def test_legacy_chunks_decode_on_new_kernel():
    legacy = LegacyOnlineCode(GOLDEN_PARAMS, seed=7)
    encoded = legacy.encode(GOLDEN_DATA, 32)
    assert "stream_version" not in encoded.metadata  # the v1 wire format
    assert fingerprint(encoded) == GOLDEN_FINGERPRINTS["online-v1"]
    new_code = OnlineCode(GOLDEN_PARAMS, seed=7)
    available = {block.index: block.data for block in encoded.blocks}
    assert new_code.decode(encoded, available) == GOLDEN_DATA


def test_new_kernel_reproduces_v1_stream_bit_for_bit():
    legacy = LegacyOnlineCode(GOLDEN_PARAMS, seed=7).encode(GOLDEN_DATA, 32)
    v1 = OnlineCode(GOLDEN_PARAMS, seed=7, stream_version=1).encode(GOLDEN_DATA, 32)
    assert [b.data for b in v1.blocks] == [b.data for b in legacy.blocks]
    assert int(v1.metadata["chunk_seed"]) == int(legacy.metadata["chunk_seed"])


def test_legacy_chunk_decodes_with_losses_on_new_kernel():
    legacy = LegacyOnlineCode(GOLDEN_PARAMS, seed=3)
    data = payload(8_192, 5)
    encoded = legacy.encode(data, 16)
    available = {block.index: block.data for block in encoded.blocks}
    rng = np.random.default_rng(1)
    for index in rng.choice(sorted(available), size=5, replace=False):
        del available[int(index)]
    assert OnlineCode(GOLDEN_PARAMS, seed=3).decode(encoded, available) == data


def test_stream_version_recorded_and_validated():
    with pytest.raises(ValueError):
        OnlineCode(GOLDEN_PARAMS, stream_version=99)
    chunk = OnlineCode(GOLDEN_PARAMS, seed=1, stream_version=1).encode(b"xyz" * 100, 4)
    assert chunk.metadata["stream_version"] == 1
    assert OnlineCode(GOLDEN_PARAMS, seed=1).decode(
        chunk, {b.index: b.data for b in chunk.blocks}
    ) == b"xyz" * 100


# -- round-trip properties with random subsets -----------------------------------
@given(
    data=st.binary(min_size=1, max_size=3000),
    n_blocks=st.integers(min_value=1, max_value=20),
    subset=st.data(),
)
@settings(max_examples=30, deadline=None)
def test_online_round_trips_from_random_rateless_subsets(data, n_blocks, subset):
    """Extra blocks are generated, then a random subset of the extended
    stream is decoded — either it round-trips or it raises DecodingError."""
    code = OnlineCode(OnlineCodeParameters(epsilon=0.25, q=3, quality=1.3), seed=13)
    encoded = code.encode(data, n_blocks)
    extra = code.generate_additional_blocks(encoded, data, 8)
    extended = replace(
        encoded,
        blocks=encoded.blocks + extra,
        metadata={**encoded.metadata, "output_blocks": len(encoded.blocks) + len(extra)},
    )
    blocks = {b.index: b.data for b in extended.blocks}
    drop = subset.draw(
        st.lists(
            st.sampled_from(sorted(blocks)), max_size=len(extra), unique=True
        )
    )
    for index in drop:
        del blocks[index]
    try:
        assert code.decode(extended, blocks) == data
    except DecodingError:
        # A random subset may be undecodable; losing nothing may not.
        assert drop


@given(
    data=st.binary(min_size=1, max_size=3000),
    n_blocks=st.integers(min_value=2, max_value=10),
    parity=st.integers(min_value=1, max_value=4),
    subset=st.data(),
)
@settings(max_examples=30, deadline=None)
def test_reed_solomon_round_trips_from_any_k_subset(data, n_blocks, parity, subset):
    code = ReedSolomonCode(parity_blocks=parity)
    encoded = code.encode(data, n_blocks)
    total = len(encoded.blocks)
    keep = subset.draw(
        st.lists(
            st.integers(min_value=0, max_value=total - 1),
            min_size=n_blocks,
            max_size=total,
            unique=True,
        )
    )
    available = {b.index: b.data for b in encoded.blocks if b.index in set(keep)}
    if len(available) >= n_blocks:
        assert code.decode(encoded, available) == data


@given(data=st.binary(min_size=0, max_size=3000), n_blocks=st.integers(min_value=1, max_value=16))
@settings(max_examples=30, deadline=None)
def test_null_and_xor_round_trip_property(data, n_blocks):
    for code in (NullCode(), XorParityCode(group_size=2)):
        encoded = code.encode(data, n_blocks)
        available = {b.index: b.data for b in encoded.blocks}
        assert code.decode(encoded, available) == data
