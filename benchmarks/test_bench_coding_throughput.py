"""Coding-kernel throughput sweep: codes x chunk sizes.

The vectorized GF(2)/GF(256) kernel (PR 1) is the repo's hottest layer: every
experiment, benchmark and repair path pays for encode/decode.  This module
sweeps the four codes over 64 KiB - 4 MiB chunks and measures MB/s for encode
and for decode (with erasures for Reed-Solomon, so the matrix-inversion path
is exercised).  A session hook (``benchmarks/conftest.py``) writes everything
to ``BENCH_coding.json`` — the perf trajectory tracked across PRs.  (Up to
f1ed3ed the sweep also timed the seed implementations on the same machine;
the last measured ratios are quoted in README.md.)
"""

from __future__ import annotations

import time
from typing import Callable, Dict

import numpy as np
import pytest

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
    """Online code at the acceptance block counts."""
    data = _payload(size)
    params = OnlineCodeParameters(epsilon=0.01, q=3)
    for blocks in ONLINE_BLOCK_COUNTS:
        code = OnlineCode(params, seed=SEED)
        encoded = code.encode(data, blocks)
        available = {b.index: b.data for b in encoded.blocks}
        assert code.decode(encoded, available) == data
        row = _measure_pair(
            lambda: code.encode(data, blocks), lambda: code.decode(encoded, available), size
        )
        _record(coding_bench_results, code="online", chunk_bytes=size, n_blocks=blocks, **row)


def test_bench_online_payload_mode_cell(coding_bench_results: dict):
    """The wide-row cell: 8 MiB chunks in 64 blocks through ``ChunkCodec``."""
    data = _payload(PAYLOAD_CHUNK_SIZE)
    codec = ChunkCodec(OnlineCode(), blocks_per_chunk=PAYLOAD_BLOCKS)
    encoded = codec.encode(data)
    available = {b.index: b.data for b in encoded.blocks}
    assert codec.decode(encoded, available) == data
    row = _measure_pair(
        lambda: codec.encode(data), lambda: codec.decode(encoded, available), len(data)
    )
    _record(
        coding_bench_results, code="online", chunk_bytes=len(data), n_blocks=PAYLOAD_BLOCKS, **row
    )


@pytest.mark.parametrize("size", CHUNK_SIZES)
def test_bench_reed_solomon_throughput(size: int, coding_bench_results: dict):
    """Reed-Solomon with erasures (matrix decode path)."""
    data = _payload(size)
    code = ReedSolomonCode(parity_blocks=RS_PARITY_BLOCKS)
    encoded = code.encode(data, RS_DATA_BLOCKS)
    available = {b.index: b.data for b in encoded.blocks}
    for lost in range(RS_PARITY_BLOCKS):  # drop systematic blocks -> erasure decode
        del available[lost]
    assert code.decode(encoded, available) == data
    row = _measure_pair(
        lambda: code.encode(data, RS_DATA_BLOCKS), lambda: code.decode(encoded, available), size
    )
    _record(
        coding_bench_results,
        code="reed-solomon",
        chunk_bytes=size,
        n_blocks=RS_DATA_BLOCKS,
        parity_blocks=RS_PARITY_BLOCKS,
        erasures=RS_PARITY_BLOCKS,
        **row,
    )


@pytest.mark.parametrize("size", CHUNK_SIZES)
def test_bench_null_xor_throughput(size: int, coding_bench_results: dict):
    """The cheap codes, for the cross-PR trajectory."""
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
    """Fill the write-guard field with the headline cells; runs last.

    Only this test sets ``speedups`` -- the field the conftest session hook
    requires -- so a filtered run never overwrites BENCH_coding.json with a
    partial record.  (The field name is the record schema's; the entries are MB/s.)
    """
    rows = coding_bench_results["results"]
    online = [r for r in rows if r["code"] == "online"
              and (r["n_blocks"], r["chunk_bytes"]) == (512, 64 * KB)]
    payload = [r for r in rows if r["code"] == "online" and r["n_blocks"] == PAYLOAD_BLOCKS]
    rs = [r for r in rows if r["code"] == "reed-solomon" and r["chunk_bytes"] == 64 * KB]
    assert online and payload and rs, "sweep tests must run before the summary"
    coding_bench_results["speedups"] = {
        "online_512x64k_encode_mb_per_s": online[0]["encode_MBps"],
        "online_512x64k_decode_mb_per_s": online[0]["decode_MBps"],
        "online_payload_encode_mb_per_s": payload[0]["encode_MBps"],
        "online_payload_decode_mb_per_s": payload[0]["decode_MBps"],
        "reed_solomon_64k_decode_mb_per_s": rs[0]["decode_MBps"],
    }
