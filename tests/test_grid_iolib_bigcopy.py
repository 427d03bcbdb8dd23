"""Unit tests for the I/O interposition layer, the stores behind it and bigCopy.

The ``make_*_backend`` helpers build the store the layer redirects to (its
back-end); what each store answers on its own is
``tests/test_store_contract.py``."""

from __future__ import annotations

import math

import pytest

from repro.baselines.cfs import CfsStore
from repro.core.policies import StoragePolicy
from repro.core.storage import StorageSystem
from repro.erasure.chunk_codec import ChunkCodec
from repro.erasure.null_code import NullCode
from repro.experiments.condor_case_study import _overhead_pct
from repro.grid.bigcopy import run_bigcopy, submit_and_run_bigcopy
from repro.grid.condor import CondorPool
from repro.grid.iolib import InterposedIO, WholeFileStore
from repro.grid.machines import build_condor_pool_nodes
from repro.grid.transfer import TransferCostModel
from repro.overlay.dht import DHTView
from repro.workloads.filetrace import GB, MB


@pytest.fixture
def pool():
    network, machines = build_condor_pool_nodes(16, seed=2)
    return network, machines


def make_varying_backend(network) -> StorageSystem:
    return StorageSystem(
        DHTView(network),
        codec=ChunkCodec(NullCode(), blocks_per_chunk=1),
        policy=StoragePolicy(max_consecutive_zero_chunks=32),
    )


def make_fixed_backend(network) -> CfsStore:
    return CfsStore(DHTView(network), block_size=4 * MB, retries_per_block=32)


def _make_whole_file_backend(network) -> WholeFileStore:
    return WholeFileStore(max(network.live_nodes(), key=lambda node: node.capacity))


# -- InterposedIO ---------------------------------------------------------------------------
def test_interposed_io_open_write_read_close(pool):
    network, _ = pool
    io = InterposedIO(make_varying_backend(network), TransferCostModel())
    fd = io.open("file", size=10 * MB, create=True)
    assert io.write(fd, 6 * MB) == 6 * MB
    assert io.write(fd, 10 * MB) == 4 * MB  # clamped at file size
    io.seek(fd, 0)
    assert io.read(fd, 3 * MB) == 3 * MB
    assert io.bytes_written == 10 * MB
    assert io.bytes_read == 3 * MB
    assert io.elapsed > 0
    io.close(fd)
    with pytest.raises(OSError):
        io.read(fd, 1)


def test_interposed_io_charges_interposition_and_lookups(pool):
    network, _ = pool
    cost = TransferCostModel(interposition_seconds=5.0, lookup_seconds=1.0)
    io = InterposedIO(make_fixed_backend(network), cost)
    fd = io.open("file", size=8 * MB, create=True)
    # 2 blocks of 4 MB => at least 2 look-ups plus the fixed interposition cost.
    assert io.lookup_count >= 2
    assert io.elapsed >= 5.0 + 2 * 1.0
    io.close(fd)


def test_interposed_io_whole_file_backend_charges_no_overhead(pool):
    network, _ = pool
    cost = TransferCostModel(interposition_seconds=10.0, lookup_seconds=10.0)
    io = InterposedIO(_make_whole_file_backend(network), cost)
    io.open("plain", size=1 * MB, create=True)
    assert io.lookup_count == 0
    assert io.elapsed == 0.0  # no interposition, no data written yet


def test_interposed_io_read_cache_avoids_repeat_lookups(pool):
    network, _ = pool
    cost = TransferCostModel(lookup_seconds=1.0)
    io = InterposedIO(make_fixed_backend(network), cost)
    fd = io.open("cached", size=8 * MB, create=True)
    io.write(fd, 8 * MB)
    io.close(fd)
    # A fresh descriptor starts with an empty lookup cache.
    fd = io.open("cached")
    lookups_after_open = io.lookup_count
    io.read(fd, 4 * MB)
    first_read_lookups = io.lookup_count - lookups_after_open
    io.seek(fd, 0)
    io.read(fd, 4 * MB)
    second_read_lookups = io.lookup_count - lookups_after_open - first_read_lookups
    assert first_read_lookups >= 1
    assert second_read_lookups == 0  # served from the fd cache


def test_interposed_io_open_missing_file_raises(pool):
    network, _ = pool
    io = InterposedIO(make_varying_backend(network))
    with pytest.raises(KeyError):
        io.open("does-not-exist")


def test_interposed_io_create_failure_raises_oserror(pool):
    network, _ = pool
    target = min(network.live_nodes(), key=lambda node: node.capacity)
    io = InterposedIO(WholeFileStore(target))
    with pytest.raises(OSError):
        io.open("too-big", size=100 * GB, create=True)


def test_interposed_io_write_requires_writable_and_seek_bounds(pool):
    network, _ = pool
    io = InterposedIO(make_varying_backend(network))
    fd = io.open("w", size=1 * MB, create=True)
    io.close(fd)
    fd2 = io.open("w")  # reopen read-only
    with pytest.raises(OSError):
        io.write(fd2, 10)
    with pytest.raises(ValueError):
        io.seek(fd2, 2 * MB)


def test_interposed_io_treats_bad_descriptors_and_lengths_alike(pool):
    """``close`` of an unknown descriptor fails like ``read``/``write`` do,
    and ``read`` rejects a negative length like ``write`` does."""
    network, _ = pool
    io = InterposedIO(make_varying_backend(network))
    with pytest.raises(OSError, match="bad file descriptor"):
        io.close(999)
    fd = io.open("f", size=1 * MB, create=True)
    with pytest.raises(ValueError, match="^length must be in "):
        io.read(fd, -5)
    with pytest.raises(ValueError, match="^length must be in "):
        io.write(fd, -5)
    assert io.bytes_read == io.bytes_written == 0
    io.close(fd)
    with pytest.raises(OSError, match="bad file descriptor"):
        io.close(fd)


# -- bigCopy ---------------------------------------------------------------------------------
def test_bigcopy_succeeds_with_varying_chunks(pool):
    network, _ = pool
    result = run_bigcopy(make_varying_backend(network), 2 * GB)
    assert result.success
    assert result.elapsed_seconds > 0
    assert result.chunk_count >= 1


def test_bigcopy_whole_file_fails_when_too_large(pool):
    network, _ = pool
    target = max(network.live_nodes(), key=lambda node: node.capacity)
    result = run_bigcopy(WholeFileStore(target), 20 * GB)
    assert not result.success
    assert result.failure_reason


@pytest.mark.parametrize("make_backend", [_make_whole_file_backend, make_fixed_backend,
                                          make_varying_backend])
def test_bigcopy_of_an_empty_file_succeeds_on_every_backend(pool, make_backend):
    """A stored file with no chunks is not a missing file (``condor --sizes 0``)."""
    network, _ = pool
    store = make_backend(network)
    result = run_bigcopy(store, 0)
    assert result.success and result.failure_reason is None
    assert result.chunk_count == len(store.chunk_sizes("bigcopy-copy")) <= 1
    assert "bigcopy-copy" in store.files
    store.delete_file("bigcopy-copy")
    with pytest.raises(KeyError):
        InterposedIO(store).open("bigcopy-copy")


def test_bigcopy_fixed_chunks_slower_than_varying(pool):
    network_a, _ = build_condor_pool_nodes(16, seed=5)
    network_b, _ = build_condor_pool_nodes(16, seed=5)
    cost = TransferCostModel()
    fixed = run_bigcopy(make_fixed_backend(network_a), 4 * GB, cost_model=cost)
    varying = run_bigcopy(make_varying_backend(network_b), 4 * GB, cost_model=cost)
    assert fixed.success and varying.success
    assert fixed.lookups > varying.lookups
    assert fixed.elapsed_seconds > varying.elapsed_seconds


def test_bigcopy_overhead_vs_baseline():
    network, _ = build_condor_pool_nodes(16, seed=6)
    result = run_bigcopy(make_varying_backend(network), 1 * GB)
    assert _overhead_pct(result, result.elapsed_seconds * 0.9) == pytest.approx(100 / 0.9 - 100)
    assert math.isnan(_overhead_pct(result, 0.0))


def test_submit_and_run_bigcopy_through_condor_pool():
    network, machines = build_condor_pool_nodes(8, seed=7)
    pool = CondorPool(machines=machines)
    job_result, copy_result = submit_and_run_bigcopy(pool, make_varying_backend(network), 1 * GB)
    assert copy_result.success
    assert job_result.finished_at - job_result.started_at == pytest.approx(copy_result.elapsed_seconds)
    assert pool.makespan() >= copy_result.elapsed_seconds
