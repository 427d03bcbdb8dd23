"""Multicast-based replica dissemination: Figures 11 and 12.

The paper simulates one source distributing an encoded chunk (split into 1000
packets) to 32 replica holders at the leaves of a binary tree of height 5
(63 nodes total).  Figure 11 sweeps the RanSub set size from 3 % to 16 % of
the tree and plots the average number of packets received per node over the
epochs; Figure 12 fixes RanSub at 16 % and plots the minimum / average /
maximum per-node packet counts, showing that the tree saturates evenly.

``node_count=0`` (the default) reproduces the paper's synthetic binary
tree.  ``node_count > 0`` instead grows the dissemination tree out of a
real overlay: the tree is the union of array-engine-routed paths from a
random source to ``replica_count`` random replica holders
(:func:`~repro.multicast.tree.build_routed_tree`), so the same Bullet/
RanSub exchange runs over the topology Pastry lookups actually induce at
10 000 nodes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.experiments.results import Series
from repro.multicast.bullet import BulletConfig, BulletSession
from repro.multicast.tree import MulticastTree, build_binary_tree, build_routed_tree
from repro.overlay.network import OverlayNetwork
from repro.overlay.validation import require_range
from repro.sim.rng import RandomStreams


#: Height of the paper's synthetic binary tree (63 vertices, 32 leaves).
TREE_HEIGHT = 5

#: RanSub fraction used by Figure 12.
SATURATION_FRACTION = 0.16


@dataclass(frozen=True)
class MulticastConfig:
    """Defaults matching the paper's Section 6.3 setup."""

    total_packets: int = 1000
    #: RanSub set sizes (fractions of the tree) swept by Figure 11.
    ransub_fractions: tuple = (0.03, 0.05, 0.06, 0.08, 0.10, 0.11, 0.13, 0.14, 0.16)
    link_capacity: int = 10
    peer_capacity: int = 5
    download_capacity: int = 25
    max_epochs: int = 800
    seed: int = 5
    #: 0 = the paper's synthetic binary tree; > 0 = grow the dissemination
    #: tree from routed overlay paths over this many nodes.
    node_count: int = 0
    #: Replica holders reached through the overlay (``node_count`` mode).
    replica_count: int = 32

    def __post_init__(self) -> None:
        for name, low in (("total_packets", 1), ("link_capacity", 0), ("peer_capacity", 0),
                          ("download_capacity", 1), ("max_epochs", 1), ("seed", 0),
                          ("node_count", 0), ("replica_count", 1)):
            require_range(name, getattr(self, name), low)
        for fraction in self.ransub_fractions:
            require_range("ransub_fractions", fraction, 0.0, 1.0, "(]")


@dataclass
class MulticastResult:
    """Figures 11 and 12, plus the routed tree in ``node_count`` mode."""

    config: MulticastConfig
    sweep: Dict[float, Series]
    saturation: Tuple[Series, Series, Series]
    tree: Optional[MulticastTree] = None

    def report(self) -> str:
        lines = []
        if self.tree is not None:
            lines.append(f"dissemination tree routed over {self.config.node_count} overlay "
                         f"nodes: {len(self.tree)} vertices, height {self.tree.height()}, "
                         f"{len(self.tree.leaves())} leaves")
        lines.append("Figure 11 — epochs to full dissemination per RanSub size")
        lines += [f"  RanSub {fraction:5.0%}: {len(series):4d} epochs"
                  for fraction, series in sorted(self.sweep.items())]
        minimum, average, maximum = self.saturation
        lines.append("Figure 12 — final min/avg/max packets per node: "
                     f"{minimum.final()} {average.final()} {maximum.final()}")
        return "\n".join(lines)


class MulticastExperiment:
    """Runs the RanSub sweep and the saturation study."""

    def __init__(self, config: MulticastConfig) -> None:
        self.config = config
        self._routed_tree: Optional[MulticastTree] = None

    def run(self) -> MulticastResult:
        """Figures 11 and 12 over one dissemination tree."""
        tree = self._build_tree() if self.config.node_count > 0 else None
        return MulticastResult(self.config, self.run_ransub_sweep(), self.run_saturation(), tree)

    def _build_tree(self) -> MulticastTree:
        """The dissemination tree (synthetic, or routed over an overlay).

        The routed tree is built once and shared by every sweep cell --
        the paper's cells likewise all use the one fixed tree, varying only
        the RanSub exchange on top of it.
        """
        config = self.config
        if config.node_count <= 0:
            return build_binary_tree(TREE_HEIGHT)
        if self._routed_tree is None:
            streams = RandomStreams(config.seed)
            network = OverlayNetwork.build(
                config.node_count, streams.fresh("overlay"))
            router = network.attach_router("pastry")
            live = network.live_ids()
            pick = streams.fresh("participants")
            count = min(config.replica_count + 1, len(live))
            chosen = pick.choice(len(live), size=count, replace=False)
            source = live[int(chosen[0])]
            targets = [live[int(index)] for index in chosen[1:]]
            self._routed_tree = build_routed_tree(router, source, targets)
        return self._routed_tree

    def _session(self, fraction: float, rng) -> BulletSession:
        config = self.config
        tree = self._build_tree()
        bullet_config = BulletConfig(
            total_packets=config.total_packets,
            ransub_fraction=fraction,
            link_capacity=config.link_capacity,
            peer_capacity=config.peer_capacity,
            download_capacity=config.download_capacity,
            max_epochs=config.max_epochs,
        )
        return BulletSession(tree, bullet_config, rng=rng)

    def run_ransub_sweep(self) -> Dict[float, Series]:
        """Figure 11: average packets per node over epochs, per RanSub size."""
        streams = RandomStreams(self.config.seed)
        results: Dict[float, Series] = {}
        for fraction in self.config.ransub_fractions:
            session = self._session(fraction, streams.fresh("sweep", fraction))
            session.run(until_complete=True)
            series = Series(label=f"RanSub = {fraction:.0%}")
            for stats in session.history:
                series.append(stats.epoch, stats.average)
            results[fraction] = series
        return results

    def run_saturation(self) -> Tuple[Series, Series, Series]:
        """Figure 12: (minimum, average, maximum) packets per node over epochs."""
        streams = RandomStreams(self.config.seed)
        session = self._session(SATURATION_FRACTION, streams.fresh("saturation"))
        session.run(until_complete=True)
        minimum = Series(label="Min")
        average = Series(label="Average")
        maximum = Series(label="Max")
        for stats in session.history:
            minimum.append(stats.epoch, stats.minimum)
            average.append(stats.epoch, stats.average)
            maximum.append(stats.epoch, stats.maximum)
        return minimum, average, maximum

