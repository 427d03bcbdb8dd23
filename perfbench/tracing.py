"""Per-layer attribution from outside: timing wrappers around public entry points.

The traced run installs class-level wrappers (in this process only) around
the public methods of each layer and wraps ``Simulator.schedule`` so every
kernel callback becomes a span attributed to the module that owns the
callback.  Spans carry name, layer, start, end, parent and an ``op_id``; a
layer's *self* time is its spans' duration minus the part their child spans
cover, so the self times of one phase sum exactly to that phase's wall time
(the unattributed remainder is the ``glue`` layer: the benchmark's own loop
and callbacks of modules outside the layer table).

Nothing under ``src/`` knows about this module; ``uninstall()`` restores every
patched attribute.
"""

from __future__ import annotations

import json
import time
from typing import Callable, Dict, List, Optional, Tuple

#: The layer table of ``perfbench/README.md`` (module names under ``repro``).
LAYERS = (
    "overlay.network", "overlay.dht", "overlay.engine", "core.capacity",
    "core.storage", "baselines.past", "baselines.cfs", "core.block_ledger",
    "core.cache", "multicast.replication", "core.transfer", "sim.engine",
    "workloads.serving", "core.recovery", "sim.faults", "erasure",
)
GLUE = "glue"

#: Spans kept for the JSONL file; the aggregates keep counting past the cap.
MAX_SPANS = 250_000


def layer_of(module: Optional[str]) -> str:
    """Map a callback's ``__module__`` to a layer of the table (else glue)."""
    if not module or not module.startswith("repro."):
        return GLUE
    name = module[len("repro."):]
    if name.startswith("erasure"):
        return "erasure"
    if name.startswith("overlay.engine"):
        return "overlay.engine"
    return name if name in LAYERS else GLUE


class Tracer:
    """In-memory span recorder with on-the-fly self-time accounting."""

    def __init__(self, op_module: Optional[str] = None,
                 measure_at_run: bool = False) -> None:
        #: Kernel callbacks owned by this module mark op boundaries (one
        #: request / failed node / churn event each); loop-driven workloads
        #: call :meth:`set_op` themselves.
        self.op_module = op_module
        #: When set, the measured phase starts at the first ``Simulator.run``
        #: (for a workload whose one public call also does its set-up).
        self.measure_at_run = measure_at_run
        self.active = False
        self.phase = "setup"
        self.op_id = -1
        self.spans: List[tuple] = []
        self.dropped_spans = 0
        #: (phase, layer) -> [calls, outermost total seconds, self seconds]
        self.layers: Dict[Tuple[str, str], List[float]] = {}
        #: (phase, span name) -> [calls, total seconds, self seconds]
        self.names: Dict[Tuple[str, str], List[float]] = {}
        #: Additive and running-maximum probe values (see ``_targets``).
        self.sums: Dict[str, float] = {}
        self.peaks: Dict[str, float] = {}
        self._root: Optional[list] = None
        self._stack: List[list] = []
        self._depth: Dict[str, int] = {}
        self._next_id = 0
        self._ops = 0
        self._origin = time.perf_counter()
        self._patched: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------------ spans --
    def enter(self, name: str, layer: str) -> list:
        self._next_id += 1
        frame = [self._next_id, name, layer, 0.0, 0.0]
        self._stack.append(frame)
        self._depth[layer] = self._depth.get(layer, 0) + 1
        frame[3] = time.perf_counter()
        return frame

    def exit(self, frame: list) -> float:
        end = time.perf_counter()
        stack = self._stack
        stack.pop()
        span_id, name, layer, start, child = frame
        duration = end - start
        parent_id = 0
        if stack:
            parent = stack[-1]
            parent[4] += duration
            parent_id = parent[0]
        phase = self.phase
        own = duration - child
        stat = self.layers.get((phase, layer))
        if stat is None:
            stat = self.layers[(phase, layer)] = [0, 0.0, 0.0]
        stat[0] += 1
        stat[2] += own
        depth = self._depth[layer] - 1
        self._depth[layer] = depth
        if depth == 0:
            stat[1] += duration
        stat = self.names.get((phase, name))
        if stat is None:
            stat = self.names[(phase, name)] = [0, 0.0, 0.0]
        stat[0] += 1
        stat[1] += duration
        stat[2] += own
        if len(self.spans) < MAX_SPANS:
            self.spans.append((span_id, parent_id, name, layer, start, end,
                               self.op_id, phase))
        else:
            self.dropped_spans += 1
        return duration

    def set_op(self, op_id: int) -> None:
        """Tag the spans that follow with one op (loop-driven workloads)."""
        self.op_id = op_id

    def begin_phase(self, phase: str) -> None:
        """Open the root span of ``phase`` (its self time is the glue)."""
        self.phase = phase
        self.active = True
        self._root = self.enter(phase, GLUE)

    def end_phase(self) -> float:
        """Close the open phase root; returns its duration in host seconds."""
        duration = self.exit(self._root)
        self.active = False
        self.op_id = -1
        return duration

    # --------------------------------------------------------------- wrapping --
    def _wrap(self, func: Callable, name: str, layer: str,
              probe: Optional[Callable] = None) -> Callable:
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return func(*args, **kwargs)
            frame = tracer.enter(name, layer)
            try:
                result = func(*args, **kwargs)
            finally:
                tracer.exit(frame)
            if probe is not None and tracer.phase == "measure":
                probe(tracer, args, result)
            return result

        traced.__name__ = getattr(func, "__name__", name)
        traced.__doc__ = getattr(func, "__doc__", None)
        return traced

    def _wrap_callback(self, callback: Callable) -> Callable:
        target = getattr(callback, "func", callback)  # functools.partial
        module = getattr(target, "__module__", None)
        layer = layer_of(module)
        name = f"callback:{layer}:" + getattr(target, "__qualname__", type(target).__name__)
        marks_op = module is not None and module == self.op_module
        tracer = self

        def traced_callback():
            if not tracer.active:
                return callback()
            saved = tracer.op_id
            if marks_op:
                tracer.op_id = tracer._ops
                tracer._ops += 1
            else:
                tracer.op_id = -1
            frame = tracer.enter(name, layer)
            try:
                return callback()
            finally:
                tracer.exit(frame)
                tracer.op_id = saved

        return traced_callback

    def _patch(self, owner: object, attr: str, replacement: object) -> None:
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        """Patch the layer entry points (class level, this process only)."""
        for owner, attr, layer, probe in _targets():
            original = owner.__dict__[attr]
            name = f"{owner.__name__}.{attr}" if isinstance(owner, type) else attr
            if isinstance(original, classmethod):
                wrapped = classmethod(self._wrap(original.__func__, name, layer, probe))
            else:
                wrapped = self._wrap(original, name, layer, probe)
            self._patch(owner, attr, wrapped)

        from repro.sim.engine import Simulator

        tracer = self
        if self.measure_at_run:
            run = Simulator.__dict__["run"]  # already the traced wrapper

            def run_opening_measure(sim, *args, **kwargs):
                if tracer.active and tracer.phase == "setup" and len(tracer._stack) == 1:
                    tracer.end_phase()
                    tracer.begin_phase("measure")
                return run(sim, *args, **kwargs)

            run_opening_measure.__doc__ = run.__doc__
            self._patch(Simulator, "run", run_opening_measure)
        schedule = Simulator.__dict__["schedule"]

        def traced_schedule(sim, delay, callback):
            if tracer.active:
                callback = tracer._wrap_callback(callback)
            return schedule(sim, delay, callback)

        traced_schedule.__doc__ = schedule.__doc__
        self._patch(Simulator, "schedule", traced_schedule)

    def uninstall(self) -> None:
        """Restore every patched attribute (safe to call twice)."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -------------------------------------------------------------- reporting --
    def layer_stats(self, phase: str = "measure") -> Dict[str, Dict[str, float]]:
        """``{layer: {calls, total_s, self_s}}`` for every table layer + glue."""
        out = {}
        for layer in LAYERS + (GLUE,):
            calls, total, own = self.layers.get((phase, layer), (0, 0.0, 0.0))
            out[layer] = {"calls": float(calls), "total_s": total, "self_s": own}
        return out

    def name_stat(self, name: str, phase: str = "measure") -> Tuple[float, float, float]:
        """``(calls, total_s, self_s)`` of one span name in one phase."""
        calls, total, own = self.names.get((phase, name), (0, 0.0, 0.0))
        return float(calls), total, own

    def callback_stat(self, layer: str, phase: str = "measure") -> Tuple[float, float]:
        """``(calls, self_s)`` of the kernel callbacks one layer owns."""
        calls = own = 0.0
        prefix = f"callback:{layer}:"
        for (span_phase, name), stat in self.names.items():
            if span_phase == phase and name.startswith(prefix):
                calls += stat[0]
                own += stat[2]
        return calls, own

    def write_jsonl(self, path) -> None:
        """One span per line, times in seconds since the tracer was created."""
        origin = self._origin
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, parent, name, layer, start, end, op_id, phase in self.spans:
                handle.write(json.dumps({
                    "id": span_id, "parent": parent, "name": name, "layer": layer,
                    "start": start - origin, "end": end - origin,
                    "op_id": op_id, "phase": phase,
                }) + "\n")


# ------------------------------------------------------------------- targets --
def _probe_active_flows(tracer: Tracer, args: tuple, result) -> None:
    scheduler = args[0]
    active = float(scheduler.active_count)
    if active > tracer.peaks.get("core.transfer.active_peak", 0.0):
        tracer.peaks["core.transfer.active_peak"] = active


def _probe_encode(tracer: Tracer, args: tuple, result) -> None:
    tracer.sums["erasure.encode_bytes"] = (
        tracer.sums.get("erasure.encode_bytes", 0.0) + len(args[1]))


def _probe_decode(tracer: Tracer, args: tuple, result) -> None:
    tracer.sums["erasure.decode_bytes"] = (
        tracer.sums.get("erasure.decode_bytes", 0.0) + len(result))


def _probe_push(tracer: Tracer, args: tuple, result) -> None:
    """Bytes pushed by one hot-file promotion: created replicas x block size."""
    replicator, filename = args[0], args[1]
    stored = replicator.storage.files.get(filename)
    if stored is None:
        return
    sizes = {placement.block_name: placement.size
             for chunk in stored.chunks for placement in chunk.placements}
    pushed = sum(sizes.get(block, 0) * len(holders)
                 for report in result for block, holders in report.holders.items())
    tracer.sums["multicast.replication.push_bytes"] = (
        tracer.sums.get("multicast.replication.push_bytes", 0.0) + pushed)


def _targets():
    """``(owner class, attribute, layer, probe)`` for every wrapped entry point."""
    from repro.baselines.cfs import CfsStore
    from repro.baselines.past import PastStore
    from repro.core.block_ledger import BlockLedger
    from repro.core.cache import CacheManager
    from repro.core.capacity import CapacityProbe
    from repro.core.recovery import RecoveryManager
    from repro.core.storage import StorageSystem
    from repro.core.transfer import TransferScheduler
    from repro.erasure.chunk_codec import ChunkCodec
    from repro.erasure.online_code import OnlineCode
    from repro.multicast.replication import MulticastReplicator
    from repro.overlay.dht import DHTView
    from repro.overlay.engine import ArrayRouterBase
    from repro.overlay.engine_pastry import PastryArrayRouter
    from repro.overlay.network import OverlayNetwork
    from repro.sim.engine import Simulator
    from repro.sim.faults import FaultInjector
    from repro.workloads import serving

    def rows(owner, layer, *attrs, probe=None):
        return [(owner, attr, layer, probe) for attr in attrs]

    return (
        rows(StorageSystem, "core.storage", "store_file", "store_bytes", "retrieve_file")
        + rows(PastStore, "baselines.past", "store_file")
        + rows(CfsStore, "baselines.cfs", "store_file")
        + rows(DHTView, "overlay.dht", "lookup", "lookup_many", "locate_name",
               "resolve_digests", "add", "remove")
        + rows(CapacityProbe, "core.capacity", "probe_chunk", "probe_chunk_fast",
               "probe_names")
        + rows(BlockLedger, "core.block_ledger", "register_file", "register_whole_file",
               "queue_whole_file", "register_striped_file", "flush_registrations",
               "compact", "fail_domain")
        + rows(CacheManager, "core.cache", "lookup_chunk", "fill_chunk")
        + rows(MulticastReplicator, "multicast.replication", "replicate_file",
               probe=_probe_push)
        + rows(TransferScheduler, "core.transfer", "submit")
        + rows(TransferScheduler, "core.transfer", "submit_many",
               probe=_probe_active_flows)
        + rows(RecoveryManager, "core.recovery", "handle_failure", "handle_leave")
        + rows(FaultInjector, "sim.faults", "fail_domain")
        + rows(OverlayNetwork, "overlay.network", "build", "join", "leave", "fail")
        + rows(ArrayRouterBase, "overlay.engine", "route")
        + rows(PastryArrayRouter, "overlay.engine", "__init__", "route_many")
        + rows(ChunkCodec, "erasure", "encode", probe=_probe_encode)
        + rows(ChunkCodec, "erasure", "decode", probe=_probe_decode)
        # Regeneration calls the code directly (decode + re-encode a block).
        + rows(OnlineCode, "erasure", "decode", "generate_additional_blocks")
        + rows(serving, "workloads.serving", "generate_request_trace")
        + rows(Simulator, "sim.engine", "run")
    )


def format_layer_table(stats: Dict[str, Dict[str, float]], wall_s: float) -> str:
    """The per-layer table of one traced measured phase."""
    lines = [f"{'layer':<24}{'calls':>10}{'total_s':>11}{'self_s':>11}{'self %':>8}"]
    for layer, row in sorted(stats.items(), key=lambda item: -item[1]["self_s"]):
        if row["calls"] == 0 and layer != GLUE:
            continue
        share = 100.0 * row["self_s"] / wall_s if wall_s > 0 else 0.0
        lines.append(f"{layer:<24}{row['calls']:>10.0f}{row['total_s']:>11.4f}"
                     f"{row['self_s']:>11.4f}{share:>8.1f}")
    attributed = sum(row["self_s"] for row in stats.values())
    lines.append(f"{'sum of self_s':<24}{'':>10}{'':>11}{attributed:>11.4f}"
                 f"{100.0 * attributed / wall_s if wall_s > 0 else 0.0:>8.1f}")
    return "\n".join(lines)
