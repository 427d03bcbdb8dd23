"""The ``bigCopy`` case-study application (Section 6.4, Table 4).

``bigCopy`` creates a copy of a specified file: it streams the source file in
and writes the copy out through whichever store is under test.  The
measurement of interest is the end-to-end wall time and whether the copy could
be stored at all (the whole-file scheme fails once the file exceeds the
largest single contribution in the pool).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.grid.condor import CondorJob, CondorPool, JobResult
from repro.grid.iolib import InterposedIO
from repro.grid.machines import GridMachine
from repro.grid.transfer import TransferCostModel
from repro.overlay.validation import require_range

#: Default I/O request size used by the copy loop (64 MB application buffers).
DEFAULT_IO_SIZE = 64 * (1 << 20)


@dataclass(frozen=True)
class BigCopyResult:
    """Outcome of one bigCopy run."""

    file_size: int
    success: bool
    elapsed_seconds: float
    lookups: int
    chunk_count: int
    failure_reason: Optional[str] = None


def run_bigcopy(
    store,
    file_size: int,
    cost_model: Optional[TransferCostModel] = None,
    io_size: int = DEFAULT_IO_SIZE,
    source_name: str = "bigcopy-source",
    copy_name: str = "bigcopy-copy",
) -> BigCopyResult:
    """Copy a ``file_size``-byte file into ``store``, reporting simulated time.

    The source file is streamed from the submitting machine (outside the
    storage pool), so reading it costs pure transfer time; the copy is written
    through the interposition layer into the store under test.
    """
    require_range("file_size", file_size, 0)
    cost = cost_model or TransferCostModel()
    io = InterposedIO(store, cost)

    # Reading the source from the submission machine: straight streaming.
    read_seconds = cost.transfer_time(file_size)

    try:
        fd = io.open(copy_name, size=file_size, create=True)
    except OSError as error:
        return BigCopyResult(
            file_size=file_size,
            success=False,
            elapsed_seconds=0.0,
            lookups=io.lookup_count,
            chunk_count=0,
            failure_reason=str(error),
        )

    remaining = file_size
    while remaining > 0:
        written = io.write(fd, min(io_size, remaining))
        if written == 0:
            break
        remaining -= written
    io.close(fd)

    chunk_count = len(store.chunk_sizes(copy_name))
    elapsed = read_seconds + io.elapsed
    return BigCopyResult(
        file_size=file_size,
        success=remaining == 0,
        elapsed_seconds=elapsed,
        lookups=io.lookup_count,
        chunk_count=chunk_count,
        failure_reason=None if remaining == 0 else "short write",
    )


def bigcopy_job(
    name: str,
    store,
    file_size: int,
    cost_model: Optional[TransferCostModel] = None,
) -> CondorJob:
    """Wrap a bigCopy run as a Condor job whose duration is the simulated time."""

    def body(machine: GridMachine) -> float:
        result = run_bigcopy(store, file_size, cost_model=cost_model)
        # Attach the detailed result to the job object for later inspection.
        body.result = result  # type: ignore[attr-defined]
        return result.elapsed_seconds if result.success else 0.0

    job = CondorJob(name=name, body=body)
    return job


def submit_and_run_bigcopy(
    pool: CondorPool,
    store,
    file_size: int,
    cost_model: Optional[TransferCostModel] = None,
    name: str = "bigCopy",
) -> tuple[JobResult, BigCopyResult]:
    """Submit a bigCopy job to a pool, run it, and return both result records."""
    job = bigcopy_job(name, store, file_size, cost_model=cost_model)
    pool.submit(job)
    results = pool.run_all()
    job_result = results[-1]
    copy_result: BigCopyResult = job.body.result  # type: ignore[attr-defined]
    return job_result, copy_result
