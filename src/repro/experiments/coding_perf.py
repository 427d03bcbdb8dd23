"""Erasure-coding performance: Table 2.

The paper encodes a 4 MB chunk with a NULL code, a (2,3) XOR code and the
online code (q=3, epsilon=0.01, 4096 blocks per chunk) and reports the encoded
size and the encode time, with overheads relative to NULL.  The harness runs
the real coders on real bytes; wall-clock milliseconds differ from the paper's
Java implementation on their host, but the relative structure (XOR slower than
NULL, online slower than XOR, online's ~3 % size overhead vs XOR's 50 %) is a
property of the algorithms and carries over.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from repro.erasure.chunk_codec import ChunkCodec, CodingMeasurement
from repro.erasure.null_code import NullCode
from repro.erasure.online_code import OnlineCode, OnlineCodeParameters
from repro.erasure.reed_solomon import ReedSolomonCode
from repro.erasure.xor_code import XorParityCode
from repro.experiments.results import TableResult
from repro.workloads.filetrace import MB


@dataclass(frozen=True)
class CodingPerfConfig:
    """Configuration of the Table 2 measurement.

    The default scales the chunk to 1 MB with 512 blocks so the bench runs in
    a couple of seconds; set ``chunk_size=4*MB, blocks_per_chunk=4096`` for the
    paper's exact parameters.
    """

    chunk_size: int = 1 * MB
    blocks_per_chunk: int = 512
    online_epsilon: float = 0.01
    online_q: int = 3
    xor_group_size: int = 2
    repetitions: int = 3
    include_reed_solomon: bool = False
    seed: int = 3


def _codecs(config: CodingPerfConfig) -> Dict[str, ChunkCodec]:
    codecs: Dict[str, ChunkCodec] = {
        "Null": ChunkCodec(NullCode(), blocks_per_chunk=config.blocks_per_chunk),
        "XOR": ChunkCodec(
            XorParityCode(group_size=config.xor_group_size),
            blocks_per_chunk=config.blocks_per_chunk,
        ),
        "Online": ChunkCodec(
            OnlineCode(
                OnlineCodeParameters(epsilon=config.online_epsilon, q=config.online_q),
                seed=config.seed,
            ),
            blocks_per_chunk=config.blocks_per_chunk,
        ),
    }
    if config.include_reed_solomon:
        codecs["Reed-Solomon"] = ChunkCodec(
            ReedSolomonCode(parity_blocks=2), blocks_per_chunk=min(config.blocks_per_chunk, 64)
        )
    return codecs


class CodingPerfExperiment:
    """Measures encode/decode time and size overhead for each code (Table 2)."""

    def __init__(self, config: CodingPerfConfig) -> None:
        self.config = config

    def run(self) -> TableResult:
        config = self.config
        rng = np.random.default_rng(config.seed)
        payload = rng.integers(0, 256, size=config.chunk_size, dtype=np.uint8).tobytes()

        table = TableResult(
            title=f"Table 2 — coding a {config.chunk_size / MB:.1f} MB chunk "
            f"({config.blocks_per_chunk} blocks/chunk)",
            columns=[
                "code",
                "encoded_size_mb",
                "size_overhead_pct",
                "encode_ms",
                "encode_overhead_pct",
                "decode_ms",
                "encode_MBps",
                "decode_MBps",
            ],
        )

        measurements: Dict[str, List[CodingMeasurement]] = {}
        for label, codec in _codecs(config).items():
            runs = [codec.measure(payload) for _ in range(config.repetitions)]
            measurements[label] = runs

        null_encode = float(np.mean([m.encode_seconds for m in measurements["Null"]]))
        for label, runs in measurements.items():
            encode = float(np.mean([m.encode_seconds for m in runs]))
            decode = float(np.mean([m.decode_seconds for m in runs]))
            encoded_size = float(np.mean([m.encoded_size for m in runs]))
            table.add_row(
                code=label,
                encoded_size_mb=encoded_size / MB,
                size_overhead_pct=100.0 * (encoded_size / config.chunk_size - 1.0),
                encode_ms=encode * 1e3,
                encode_overhead_pct=(100.0 * (encode / null_encode - 1.0)) if null_encode > 0 else 0.0,
                decode_ms=decode * 1e3,
                encode_MBps=float(np.mean([m.encode_throughput_mb_s for m in runs])),
                decode_MBps=float(np.mean([m.decode_throughput_mb_s for m in runs])),
            )
        return table
