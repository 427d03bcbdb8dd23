"""Synthetic file-system traces matching the paper's trace statistics."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, List, Optional

import numpy as np

from repro.overlay.validation import require_range

#: Bytes per mega/gigabyte used throughout the reproduction (binary units,
#: matching the paper's "4 MB chunk", "45 GB capacity" style figures).
MB = 1 << 20
GB = 1 << 30


@dataclass(frozen=True)
class FileRecord:
    """One file of the workload: name and size in bytes."""

    name: str
    size: int

    def __post_init__(self) -> None:
        require_range("size", self.size, 0)


@dataclass
class FileTrace:
    """An ordered collection of files to insert into the storage systems."""

    files: List[FileRecord] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.files)

    def __iter__(self) -> Iterator[FileRecord]:
        return iter(self.files)

    @property
    def total_bytes(self) -> int:
        """Sum of all file sizes."""
        return sum(record.size for record in self.files)

    def subset(self, count: int) -> "FileTrace":
        """The first ``count`` files as a new trace."""
        return FileTrace(files=self.files[:count])


@dataclass(frozen=True)
class FileTraceConfig:
    """Parameters of the synthetic trace generator.

    Defaults reproduce the paper's trace statistics: minimum file size 50 MB,
    mean 243 MB, standard deviation 55 MB.  Two models are offered:

    * ``truncated-normal`` (default): sizes are normal(mean, std) resampled
      above the minimum -- the simplest model matching the reported moments;
    * ``lognormal``: a heavy-tailed alternative (file sizes in the wild are
      typically lognormal); the ablation benchmarks use it to check that the
      paper's conclusions do not depend on the normal-tail assumption.
    """

    file_count: int = 10_000
    mean_size: int = 243 * MB
    std_size: int = 55 * MB
    min_size: int = 50 * MB
    model: str = "truncated-normal"
    name_prefix: str = "file"

    def __post_init__(self) -> None:
        for name in ("file_count", "std_size", "min_size"):
            require_range(name, getattr(self, name), 0)
        require_range("mean_size", self.mean_size, 0, ends="()")
        if self.model not in ("truncated-normal", "lognormal"):
            raise ValueError(f"unknown trace model {self.model!r}")


#: The paper's trace statistics at full scale (1.2 M files).
PAPER_TRACE_CONFIG = FileTraceConfig(file_count=1_200_000)


def _truncated_normal_sizes(config: FileTraceConfig, rng: np.random.Generator) -> np.ndarray:
    sizes = rng.normal(config.mean_size, config.std_size, size=config.file_count)
    # Resample values below the minimum instead of clipping, so the minimum
    # does not become an atom that would distort the mean.
    for _ in range(64):
        below = sizes < config.min_size
        if not below.any():
            break
        sizes[below] = rng.normal(config.mean_size, config.std_size, size=int(below.sum()))
    np.clip(sizes, config.min_size, None, out=sizes)
    return sizes


def _lognormal_sizes(config: FileTraceConfig, rng: np.random.Generator) -> np.ndarray:
    mean, std = float(config.mean_size), float(config.std_size)
    sigma2 = np.log(1.0 + (std / mean) ** 2)
    mu = np.log(mean) - sigma2 / 2.0
    sizes = rng.lognormal(mu, np.sqrt(sigma2), size=config.file_count)
    for _ in range(64):
        below = sizes < config.min_size
        if not below.any():
            break
        sizes[below] = rng.lognormal(mu, np.sqrt(sigma2), size=int(below.sum()))
    np.clip(sizes, config.min_size, None, out=sizes)
    return sizes


def generate_file_trace(
    config: Optional[FileTraceConfig] = None,
    rng: Optional[np.random.Generator] = None,
    seed: Optional[int] = None,
) -> FileTrace:
    """Generate a synthetic trace according to ``config``.

    Either an explicit ``rng`` or a ``seed`` may be given; with neither, a
    fixed default seed is used so that the quickstart example is reproducible.
    """
    config = config or FileTraceConfig()
    if rng is None:
        rng = np.random.default_rng(0 if seed is None else seed)
    if config.file_count == 0:
        return FileTrace(files=[])
    if config.model == "truncated-normal":
        sizes = _truncated_normal_sizes(config, rng)
    else:
        sizes = _lognormal_sizes(config, rng)
    files = [
        FileRecord(name=f"{config.name_prefix}-{index:08d}", size=int(round(size)))
        for index, size in enumerate(sizes)
    ]
    return FileTrace(files=files)
