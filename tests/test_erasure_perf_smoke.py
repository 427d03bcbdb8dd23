"""Wall-clock and allocation smoke guards for the coding kernel (tier-1).

The real throughput numbers live in ``benchmarks/test_bench_coding_throughput``
(run with ``-m bench``); the wall-clock assertions only catch order-of-magnitude
regressions — e.g. an accidental return to per-block RNG construction or
scalar elimination — without making tier-1 timing-sensitive.  The allocation
guard is deterministic: it fails when chunk-sized temporaries come back on the
wide-row path, which budgets of x100 would never notice.
"""

from __future__ import annotations

import time
import tracemalloc

import numpy as np

from repro.erasure.online_code import OnlineCode, OnlineCodeParameters

MB = 1 << 20


def test_online_encode_1mib_256_blocks_within_budget():
    data = np.random.default_rng(11).integers(0, 256, size=1 * MB, dtype=np.uint8).tobytes()
    code = OnlineCode(OnlineCodeParameters(epsilon=0.01, q=3), seed=11)
    code.encode(data, 256)  # cold run builds and caches the code graph
    start = time.perf_counter()
    encoded = code.encode(data, 256)
    elapsed = time.perf_counter() - start
    # ~3-4 ms on the development machine; the budget is deliberately generous
    # (x100+) so only catastrophic regressions trip it.
    assert elapsed < 1.0, f"warm online encode took {elapsed:.3f}s for 1 MiB / 256 blocks"

    available = {block.index: block.data for block in encoded.blocks}
    code.decode(encoded, available)  # cold decode compiles the program
    start = time.perf_counter()
    assert code.decode(encoded, available) == data
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"warm online decode took {elapsed:.3f}s for 1 MiB / 256 blocks"


def test_wide_row_encode_decode_allocates_no_chunk_sized_temporaries():
    """Peak traced memory of a warm 4 MiB / 64-block encode + decode.

    NumPy reports its buffers to ``tracemalloc``.  With 64 KiB rows the
    length-grouped 3-D gather, the separate solution matrix and the joined
    input buffer peaked at 37.1 MB (measured at the parent of the streaming
    kernels); streaming in place peaks at 18.7 MB, which is the unavoidable
    set: 5.2 MB of encoded blocks held by the caller, the 9.4 MB equation
    matrix (85 equations + 66 residual rows for this graph) and the 4 MB
    result.  The bound sits between the two.
    """
    data = np.random.default_rng(11).integers(0, 256, size=4 * MB, dtype=np.uint8).tobytes()
    code = OnlineCode(OnlineCodeParameters(epsilon=0.01, q=3), seed=11)
    encoded = code.encode(data, 64)  # warm: code graph and decode program cached
    available = {block.index: block.data for block in encoded.blocks}
    assert code.decode(encoded, available) == data
    del encoded, available

    tracemalloc.start()
    try:
        encoded = code.encode(data, 64)
        decoded = code.decode(encoded, {block.index: block.data for block in encoded.blocks})
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert decoded == data
    assert peak < 26 * MB, f"encode + decode peaked at {peak / MB:.1f} MB of traced allocations"


def test_wide_row_encode_writes_no_intermediate_matrix():
    """Peak traced memory of a warm 8 MiB / 64-block encode.

    The encoder reads the originals in place, builds only the auxiliary rows
    and XORs every check block straight into the one buffer its blocks view,
    so what it allocates is its output plus the auxiliary rows.  Packing the
    originals into a composite matrix and converting each check row to
    ``bytes`` peaked at 29.0 MiB for 10.4 MiB of output; the bound allows 5 %
    over the unavoidable set.
    """
    data = np.random.default_rng(11).integers(0, 256, size=8 * MB, dtype=np.uint8).tobytes()
    parameters = OnlineCodeParameters(epsilon=0.01, q=3)
    code = OnlineCode(parameters, seed=11)
    code.encode(data, 64)  # warm: the code graph is cached

    tracemalloc.start()
    try:
        encoded = code.encode(data, 64)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    aux_bytes = parameters.auxiliary_count(64) * encoded.block_size
    bound = 1.05 * (encoded.encoded_size + aux_bytes)
    assert peak <= bound, (
        f"encode peaked at {peak / MB:.2f} MiB of traced allocations; "
        f"output {encoded.encoded_size / MB:.2f} MiB + aux {aux_bytes / MB:.2f} MiB"
    )
