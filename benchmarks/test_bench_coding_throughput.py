"""Coding-kernel throughput sweep: codes x chunk sizes, new vs seed baselines.

The vectorized GF(2)/GF(256) kernel (PR 1) is the repo's hottest layer: every
experiment, benchmark and repair path pays for encode/decode.  This module
sweeps the four codes over 64 KiB - 4 MiB chunks, measures MB/s for encode and
for decode (with erasures for Reed-Solomon, so the matrix-inversion path is
exercised), and measures the *preserved seed implementations*
(:mod:`repro.erasure._legacy`) on the same machine so the recorded speedups
are honest.  A session hook (``benchmarks/conftest.py``) writes everything to
``BENCH_coding.json`` — the perf trajectory tracked across PRs.
"""

from __future__ import annotations

import time
from typing import Callable, Dict

import numpy as np
import pytest

from repro.erasure._legacy import LegacyOnlineCode, LegacyReedSolomonCode
from repro.erasure.chunk_codec import ChunkCodec
from repro.erasure.online_code import OnlineCode, OnlineCodeParameters
from repro.erasure.null_code import NullCode
from repro.erasure.reed_solomon import ReedSolomonCode
from repro.erasure.xor_code import XorParityCode

KB = 1 << 10
MB = 1 << 20

CHUNK_SIZES = (64 * KB, 256 * KB, 1 * MB, 4 * MB)

#: The acceptance configuration: online code at >= 256 blocks.
ONLINE_BLOCK_COUNTS = (256, 512)
#: What payload mode actually runs (perfbench ``payload_roundtrip``): 128 KiB
#: rows, the wide-row regime of the GF(2) kernel; every cell above has rows of
#: 128 B - 16 KiB.
PAYLOAD_CHUNK_SIZE = 8 * MB
PAYLOAD_BLOCKS = 64
RS_DATA_BLOCKS = 64
RS_PARITY_BLOCKS = 4
SEED = 3


def _payload(size: int) -> bytes:
    return np.random.default_rng(SEED).integers(0, 256, size=size, dtype=np.uint8).tobytes()


def _best_seconds(fn: Callable[[], object], repetitions: int = 3) -> float:
    fn()  # warm caches: code graphs, decode programs, generator matrices
    best = float("inf")
    for _ in range(repetitions):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _measure_pair(
    encode: Callable[[], object], decode: Callable[[], object], size: int
) -> Dict[str, float]:
    encode_s = _best_seconds(encode)
    decode_s = _best_seconds(decode)
    return {
        "encode_s": encode_s,
        "decode_s": decode_s,
        "encode_MBps": size / MB / encode_s,
        "decode_MBps": size / MB / decode_s,
    }


def _record(results: dict, **row) -> None:
    results["results"].append(row)


@pytest.mark.parametrize("size", CHUNK_SIZES)
def test_bench_online_throughput(size: int, coding_bench_results: dict):
    """Online code, new kernel vs preserved seed implementation."""
    data = _payload(size)
    params = OnlineCodeParameters(epsilon=0.01, q=3)
    for blocks in ONLINE_BLOCK_COUNTS:
        code = OnlineCode(params, seed=SEED)
        encoded = code.encode(data, blocks)
        available = {b.index: b.data for b in encoded.blocks}
        assert code.decode(encoded, available) == data
        new = _measure_pair(
            lambda: code.encode(data, blocks), lambda: code.decode(encoded, available), size
        )

        legacy = LegacyOnlineCode(params, seed=SEED)
        legacy_encoded = legacy.encode(data, blocks)
        legacy_available = {b.index: b.data for b in legacy_encoded.blocks}
        assert legacy.decode(legacy_encoded, legacy_available) == data
        old = _measure_pair(
            lambda: legacy.encode(data, blocks),
            lambda: legacy.decode(legacy_encoded, legacy_available),
            size,
        )

        _record(
            coding_bench_results,
            code="online",
            chunk_bytes=size,
            n_blocks=blocks,
            **new,
            legacy_encode_MBps=old["encode_MBps"],
            legacy_decode_MBps=old["decode_MBps"],
            encode_speedup=new["encode_MBps"] / old["encode_MBps"],
            decode_speedup=new["decode_MBps"] / old["decode_MBps"],
        )


def test_bench_online_payload_mode_cell(coding_bench_results: dict):
    """The wide-row cell: 8 MiB chunks in 64 blocks through ``ChunkCodec``."""
    data = _payload(PAYLOAD_CHUNK_SIZE)
    codec = ChunkCodec(OnlineCode(), blocks_per_chunk=PAYLOAD_BLOCKS)
    encoded = codec.encode(data)
    available = {b.index: b.data for b in encoded.blocks}
    assert codec.decode(encoded, available) == data
    new = _measure_pair(
        lambda: codec.encode(data), lambda: codec.decode(encoded, available), len(data)
    )

    legacy = LegacyOnlineCode(codec.code.parameters)
    legacy_encoded = legacy.encode(data, PAYLOAD_BLOCKS)
    legacy_available = {b.index: b.data for b in legacy_encoded.blocks}
    assert legacy.decode(legacy_encoded, legacy_available) == data
    old = _measure_pair(
        lambda: legacy.encode(data, PAYLOAD_BLOCKS),
        lambda: legacy.decode(legacy_encoded, legacy_available),
        len(data),
    )
    _record(
        coding_bench_results,
        code="online",
        chunk_bytes=len(data),
        n_blocks=PAYLOAD_BLOCKS,
        **new,
        legacy_encode_MBps=old["encode_MBps"],
        legacy_decode_MBps=old["decode_MBps"],
        encode_speedup=new["encode_MBps"] / old["encode_MBps"],
        decode_speedup=new["decode_MBps"] / old["decode_MBps"],
    )


@pytest.mark.parametrize("size", CHUNK_SIZES)
def test_bench_reed_solomon_throughput(size: int, coding_bench_results: dict):
    """Reed-Solomon with erasures (matrix decode path), new vs seed."""
    data = _payload(size)
    code = ReedSolomonCode(parity_blocks=RS_PARITY_BLOCKS)
    encoded = code.encode(data, RS_DATA_BLOCKS)
    available = {b.index: b.data for b in encoded.blocks}
    for lost in range(RS_PARITY_BLOCKS):  # drop systematic blocks -> erasure decode
        del available[lost]
    assert code.decode(encoded, available) == data
    new = _measure_pair(
        lambda: code.encode(data, RS_DATA_BLOCKS), lambda: code.decode(encoded, available), size
    )

    legacy = LegacyReedSolomonCode(parity_blocks=RS_PARITY_BLOCKS)
    legacy_encoded = legacy.encode(data, RS_DATA_BLOCKS)
    legacy_available = {b.index: b.data for b in legacy_encoded.blocks}
    for lost in range(RS_PARITY_BLOCKS):
        del legacy_available[lost]
    assert legacy.decode(legacy_encoded, legacy_available) == data
    old = _measure_pair(
        lambda: legacy.encode(data, RS_DATA_BLOCKS),
        lambda: legacy.decode(legacy_encoded, legacy_available),
        size,
    )

    _record(
        coding_bench_results,
        code="reed-solomon",
        chunk_bytes=size,
        n_blocks=RS_DATA_BLOCKS,
        parity_blocks=RS_PARITY_BLOCKS,
        erasures=RS_PARITY_BLOCKS,
        **new,
        legacy_encode_MBps=old["encode_MBps"],
        legacy_decode_MBps=old["decode_MBps"],
        encode_speedup=new["encode_MBps"] / old["encode_MBps"],
        decode_speedup=new["decode_MBps"] / old["decode_MBps"],
    )


@pytest.mark.parametrize("size", CHUNK_SIZES)
def test_bench_null_xor_throughput(size: int, coding_bench_results: dict):
    """The cheap codes, for the cross-PR trajectory (no legacy comparison)."""
    data = _payload(size)
    for label, code, blocks in (
        ("null", NullCode(), 256),
        ("xor", XorParityCode(group_size=2), 256),
    ):
        encoded = code.encode(data, blocks)
        available = {b.index: b.data for b in encoded.blocks}
        assert code.decode(encoded, available) == data
        row = _measure_pair(
            lambda: code.encode(data, blocks), lambda: code.decode(encoded, available), size
        )
        _record(
            coding_bench_results, code=label, chunk_bytes=size, n_blocks=blocks, **row
        )


def test_bench_coding_speedup_summary(coding_bench_results: dict):
    """Aggregate the acceptance numbers; runs last (alphabetical luck aside)."""
    rows = coding_bench_results["results"]
    online = [r for r in rows if r["code"] == "online" and r["n_blocks"] >= 256]
    rs = [r for r in rows if r["code"] == "reed-solomon"]
    assert online and rs, "sweep tests must run before the summary"
    best_online = max(online, key=lambda r: min(r["encode_speedup"], r["decode_speedup"]))
    best_rs = max(rs, key=lambda r: r["decode_speedup"])
    coding_bench_results["speedups"] = {
        "online_encode_speedup": best_online["encode_speedup"],
        "online_decode_speedup": best_online["decode_speedup"],
        "online_blocks": best_online["n_blocks"],
        "online_chunk_bytes": best_online["chunk_bytes"],
        "reed_solomon_decode_speedup": best_rs["decode_speedup"],
        "reed_solomon_chunk_bytes": best_rs["chunk_bytes"],
    }
    # Acceptance: >= 5x online encode+decode at 256+ blocks, >= 3x RS decode.
    assert best_online["encode_speedup"] >= 5.0
    assert best_online["decode_speedup"] >= 5.0
    assert best_rs["decode_speedup"] >= 3.0
