"""File availability under node failures: Figure 10.

The paper distributes the trace across the overlay, then fails 1000 of the
10 000 nodes one-by-one (no recovery) and counts the files that become
unavailable, comparing no error coding, a (2,3) XOR code, and an online code
that tolerates two simultaneous failures per chunk.  A file counts as
available only if *every* chunk can still be retrieved.

Running at the paper's scale
----------------------------
The whole experiment runs on the array-backed placement engine plus the
columnar block ledger: populations are built without the O(N^2) per-node
Pastry state, every store goes through the batched lookup kernels, each
failure is one mask over the ledger's owner column, and an availability
sample is a single O(1) counter read instead of a walk over every placement
of every file.  That is what makes the paper's
10 000-node / 1 000-failure configuration (:data:`PAPER_FIG10`) practical on
one core::

    python -m repro.cli fig10                 # paper scale (minutes)
    python -m repro.cli fig10 --scale 0.1     # 1 000 nodes, quick look

The seed pipeline's curves (per-node dict walks per sample) are frozen in
``tests/golden/fig10_curves.json``; ``tests/test_churn_equivalence.py``
asserts this experiment reproduces them exactly, and
``benchmarks/test_bench_churn_failures.py`` records its throughput in
``BENCH_churn.json``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, Optional

from repro.erasure.base import CodeSpec
from repro.erasure.chunk_codec import ChunkCodec
from repro.erasure.null_code import NullCode
from repro.erasure.xor_code import XorParityCode
from repro.experiments.base import DeploymentConfig, deploy
from repro.experiments.results import Series
from repro.sim.churn import FailureSchedule
from repro.sim.rng import RandomStreams


class _SpecOnlyCode(NullCode):
    """A code used only for capacity simulation: counts come from a fixed spec.

    The availability experiment never touches payloads; what matters is how
    many encoded blocks each chunk is spread over and how many losses it
    tolerates.  The paper's online-code configuration "could tolerate two
    simultaneous failures per chunk", which this wrapper expresses directly.
    """

    def __init__(self, spec: CodeSpec) -> None:
        self._spec = spec
        self.name = spec.name

    def spec(self, n_blocks: int) -> CodeSpec:  # noqa: D102 - interface impl
        return self._spec


@dataclass(frozen=True)
class AvailabilityConfig(DeploymentConfig):
    """The Figure 10 experiment; the defaults are the paper's configuration.

    The file count keeps the distribution phase to a couple of minutes on one
    core while preserving the figure's qualitative comparison; raise it
    towards the paper's full trace for longer runs
    (``python -m repro.cli fig10 --files N``).
    """

    node_count: int = 10_000
    file_count: int = 20_000
    seed: int = 2
    #: Fraction of nodes failed one-by-one (paper: 1000 of 10 000 = 10 %).
    fail_fraction: float = 0.10
    #: Number of points sampled along the failure axis.
    sample_points: int = 20


#: The paper's Figure 10 configuration: 10 000 nodes, fail 10 % one by one.
PAPER_FIG10 = AvailabilityConfig()


class AvailabilityExperiment:
    """Runs the unavailable-files-vs-failures comparison for three codings."""

    def __init__(self, config: Optional[AvailabilityConfig] = None) -> None:
        self.config = config or AvailabilityConfig()
        #: Per-coding wall-clock phase timings of the last :meth:`run`
        #: ({label: {"distribute_s": ..., "sweep_s": ...}}), recorded for the
        #: churn benchmarks.
        self.timings: Dict[str, Dict[str, float]] = {}

    def _codecs(self) -> Dict[str, ChunkCodec]:
        blocks = self.config.blocks_per_chunk
        online_spec = CodeSpec(
            name="online",
            input_blocks=blocks,
            output_blocks=blocks + 3,
            loss_tolerance=2,
            size_overhead=0.03,
        )
        return {
            "No error code": ChunkCodec(NullCode(), blocks_per_chunk=1),
            "XOR code": ChunkCodec(XorParityCode(group_size=2), blocks_per_chunk=blocks),
            "Online code": ChunkCodec(_SpecOnlyCode(online_spec), blocks_per_chunk=blocks),
        }

    def run(self) -> Dict[str, Series]:
        """Distribute the trace under each coding and fail nodes one by one.

        Returns one series per coding: x = number of failed nodes, y = percent
        of stored files that are no longer available.
        """
        config = self.config
        streams = RandomStreams(config.seed)
        results: Dict[str, Series] = {}
        self.timings = {}
        for label, codec in self._codecs().items():
            phase_start = time.perf_counter()
            # Same stream labels every round: the three codings meet the same
            # population and the same trace.
            session, client = deploy(config, streams, codec=codec)
            network = session.network
            distribute_s = time.perf_counter() - phase_start

            schedule = FailureSchedule(
                network.live_ids(), config.fail_fraction, rng=streams.fresh("failures", label)
            )
            series = Series(label=label)
            total = client.file_count
            sample_every = max(1, len(schedule) // max(1, config.sample_points))
            failed_so_far = 0
            series.append(0, 0.0)
            sweep_start = time.perf_counter()
            ledger = session.ledger
            for event in schedule:
                node = network.node(event.node_id)
                if node.alive:
                    # The ledger is notified through the node's state
                    # listeners; there is no per-node routing state to repair,
                    # so a failure is O(k).
                    network.fail(event.node_id)
                # Note: the DHT view is deliberately NOT updated -- the paper's
                # experiment measures raw availability without any repair.
                failed_so_far += 1
                if failed_so_far % sample_every == 0 or failed_so_far == len(schedule):
                    unavailable = ledger.unavailable_count
                    series.append(failed_so_far, 100.0 * unavailable / total if total else 0.0)
            results[label] = series
            self.timings[label] = {
                "distribute_s": distribute_s,
                "sweep_s": time.perf_counter() - sweep_start,
                "failures": float(len(schedule)),
            }
        return results
