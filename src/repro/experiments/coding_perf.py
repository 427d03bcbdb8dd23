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

import gc
from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from repro.erasure.chunk_codec import ChunkCodec, CodingMeasurement
from repro.erasure.null_code import NullCode
from repro.erasure.online_code import OnlineCode
from repro.erasure.xor_code import XorParityCode
from repro.experiments.results import TableResult
from repro.overlay.validation import AT_LEAST_1, require_fields
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
    repetitions: int = 3
    seed: int = 3

    def __post_init__(self) -> None:
        require_fields(self, {"chunk_size": AT_LEAST_1, "blocks_per_chunk": AT_LEAST_1,
                              "repetitions": AT_LEAST_1})


def _codecs(config: CodingPerfConfig) -> Dict[str, ChunkCodec]:
    # The codes' own defaults are the paper's: (2,3) XOR parity and the
    # online code at (epsilon, q) = (0.01, 3).
    return {
        label: ChunkCodec(code, blocks_per_chunk=config.blocks_per_chunk)
        for label, code in (("Null", NullCode()), ("XOR", XorParityCode()),
                            ("Online", OnlineCode(seed=config.seed)))
    }


class CodingPerfExperiment:
    """Measures encode/decode time (each code's fastest of ``repetitions``) and size overhead (Table 2)."""

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

        codecs = list(_codecs(config).items())
        measurements: Dict[str, List[CodingMeasurement]] = {label: [] for label, _ in codecs}
        collecting = gc.isenabled()
        gc.disable()  # a collection of the caller's objects is not coding time
        try:
            # The codes take turns, each repetition starting one code later, so
            # a CPU-speed switch or a preemption slows one repetition of every
            # code, not every repetition of one.
            for repetition in range(config.repetitions):
                turn = repetition % len(codecs)
                for label, codec in codecs[turn:] + codecs[:turn]:
                    measurements[label].append(codec.measure(payload))
        finally:
            if collecting:
                gc.enable()

        null_encode = min(m.encode_seconds for m in measurements["Null"])
        for label, runs in measurements.items():
            encode = min(m.encode_seconds for m in runs)
            decode = min(m.decode_seconds for m in runs)
            encoded_size = float(np.mean([m.encoded_size for m in runs]))
            table.add_row(
                code=label,
                encoded_size_mb=encoded_size / MB,
                size_overhead_pct=100.0 * (encoded_size / config.chunk_size - 1.0),
                encode_ms=encode * 1e3,
                encode_overhead_pct=(100.0 * (encode / null_encode - 1.0)) if null_encode > 0 else 0.0,
                decode_ms=decode * 1e3,
                encode_MBps=max(m.encode_throughput_mb_s for m in runs),
                decode_MBps=max(m.decode_throughput_mb_s for m in runs),
            )
        return table
