"""Unit tests for the I/O interposition layer, its back-ends and bigCopy."""

from __future__ import annotations

import pytest

from repro.baselines.cfs import CfsStore
from repro.core.policies import StoragePolicy
from repro.core.storage import StorageSystem
from repro.erasure.chunk_codec import ChunkCodec
from repro.erasure.null_code import NullCode
from repro.grid.bigcopy import run_bigcopy, submit_and_run_bigcopy
from repro.grid.condor import CondorPool
from repro.grid.iolib import (
    FixedChunkBackend,
    InterposedIO,
    VaryingChunkBackend,
    WholeFileBackend,
)
from repro.grid.machines import build_condor_pool_nodes
from repro.grid.transfer import TransferCostModel
from repro.overlay.dht import DHTView
from repro.workloads.filetrace import GB, MB


@pytest.fixture
def pool():
    network, machines = build_condor_pool_nodes(16, seed=2)
    return network, machines


def make_varying_backend(network) -> VaryingChunkBackend:
    storage = StorageSystem(
        DHTView(network),
        codec=ChunkCodec(NullCode(), blocks_per_chunk=1),
        policy=StoragePolicy(max_consecutive_zero_chunks=32),
    )
    return VaryingChunkBackend(storage)


def make_fixed_backend(network) -> FixedChunkBackend:
    return FixedChunkBackend(CfsStore(DHTView(network), block_size=4 * MB, retries_per_block=32))


# -- back-ends ---------------------------------------------------------------------------
def test_whole_file_backend_capacity_limit(pool):
    network, _ = pool
    target = max(network.live_nodes(), key=lambda node: node.capacity)
    backend = WholeFileBackend(target)
    outcome = backend.create_file("fits", target.capacity // 2)
    assert outcome.success and outcome.chunk_count == 1 and outcome.lookups == 0
    too_big = backend.create_file("huge", 20 * GB)
    assert not too_big.success
    assert backend.chunk_layout("fits") == [target.capacity // 2]
    backend.delete_file("fits")
    with pytest.raises(KeyError):
        backend.chunk_layout("fits")


def test_whole_file_backend_duplicate(pool):
    network, _ = pool
    backend = WholeFileBackend(network.live_nodes()[0])
    assert backend.create_file("a", 1 * MB).success
    assert not backend.create_file("a", 1 * MB).success


def test_fixed_backend_reports_chunks_and_lookups(pool):
    network, _ = pool
    backend = make_fixed_backend(network)
    outcome = backend.create_file("data", 40 * MB)
    assert outcome.success
    assert outcome.chunk_count == 10
    assert outcome.lookups >= 10
    assert sum(backend.chunk_layout("data")) == 40 * MB
    backend.delete_file("data")
    with pytest.raises(KeyError):
        backend.chunk_layout("data")


def test_varying_backend_reports_few_chunks(pool):
    network, _ = pool
    backend = make_varying_backend(network)
    outcome = backend.create_file("data", 4 * GB)
    assert outcome.success
    assert 1 <= outcome.chunk_count < 10
    assert sum(backend.chunk_layout("data")) == 4 * GB


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
    backend = make_fixed_backend(network)
    io = InterposedIO(backend, cost)
    fd = io.open("file", size=8 * MB, create=True)
    # 2 blocks of 4 MB => at least 2 look-ups plus the fixed interposition cost.
    assert io.lookup_count >= 2
    assert io.elapsed >= 5.0 + 2 * 1.0
    io.close(fd)


def test_interposed_io_whole_file_backend_charges_no_overhead(pool):
    network, _ = pool
    target = max(network.live_nodes(), key=lambda node: node.capacity)
    cost = TransferCostModel(interposition_seconds=10.0, lookup_seconds=10.0)
    io = InterposedIO(WholeFileBackend(target), cost)
    io.open("plain", size=1 * MB, create=True)
    assert io.lookup_count == 0
    assert io.elapsed == 0.0  # no interposition, no data written yet


def test_interposed_io_read_cache_avoids_repeat_lookups(pool):
    network, _ = pool
    backend = make_fixed_backend(network)
    cost = TransferCostModel(lookup_seconds=1.0)
    io = InterposedIO(backend, cost)
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
    io = InterposedIO(WholeFileBackend(target))
    with pytest.raises(OSError):
        io.open("too-big", size=100 * GB, create=True)


def test_interposed_io_write_requires_writable_and_seek_bounds(pool):
    network, _ = pool
    backend = make_varying_backend(network)
    io = InterposedIO(backend)
    fd = io.open("w", size=1 * MB, create=True)
    io.close(fd)
    fd2 = io.open("w")  # reopen read-only
    with pytest.raises(OSError):
        io.write(fd2, 10)
    with pytest.raises(ValueError):
        io.seek(fd2, 2 * MB)


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
    result = run_bigcopy(WholeFileBackend(target), 20 * GB)
    assert not result.success
    assert result.failure_reason


def _make_whole_file_backend(network) -> WholeFileBackend:
    return WholeFileBackend(max(network.live_nodes(), key=lambda node: node.capacity))


@pytest.mark.parametrize("make_backend", [_make_whole_file_backend, make_fixed_backend,
                                          make_varying_backend])
def test_bigcopy_of_an_empty_file_succeeds_on_every_backend(pool, make_backend):
    """A stored file with no chunks is not a missing file (``condor --sizes 0``)."""
    network, _ = pool
    backend = make_backend(network)
    result = run_bigcopy(backend, 0)
    assert result.success and result.failure_reason is None
    assert result.chunk_count == len(backend.chunk_layout("bigcopy-copy")) <= 1
    backend.delete_file("bigcopy-copy")
    with pytest.raises(KeyError):
        backend.chunk_layout("bigcopy-copy")


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
    assert result.overhead_vs(result.elapsed_seconds * 0.9) == pytest.approx(1 / 0.9 - 1, rel=1e-6)
    assert result.overhead_vs(0.0) is None


def test_submit_and_run_bigcopy_through_condor_pool():
    network, machines = build_condor_pool_nodes(8, seed=7)
    pool = CondorPool(machines=machines)
    job_result, copy_result = submit_and_run_bigcopy(pool, make_varying_backend(network), 1 * GB)
    assert copy_result.success
    assert job_result.duration == pytest.approx(copy_result.elapsed_seconds)
    assert pool.makespan() >= copy_result.elapsed_seconds
