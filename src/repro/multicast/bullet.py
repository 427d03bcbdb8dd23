"""Bullet-style packet dissemination over a multicast tree.

Bullet (Kostic et al., SOSP 2003) pushes data down a tree while letting every
vertex also *pull* missing packets from peers it learns about through RanSub,
so that bandwidth bottlenecks high in the tree do not starve whole subtrees.
The reproduction models dissemination in epochs:

1. the RanSub protocol refreshes every vertex's random peer view;
2. every vertex receives up to ``link_capacity`` packets it is missing from
   its parent (the tree push);
3. every vertex additionally pulls up to ``peer_capacity`` missing packets
   from each peer in its RanSub view that holds packets it lacks, subject to
   an overall ``download_capacity`` per epoch (the mesh recovery).

The experiment of Section 6.3 uses a 63-node binary tree with the source at
the root, 32 leaf receivers and a chunk split into 1000 packets, sweeping the
RanSub size from 3 % to 16 % of the tree; :class:`BulletSession` records the
per-epoch minimum / average / maximum packets per node needed for Figures 11
and 12.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set

import numpy as np

from repro.multicast.ransub import RanSubProtocol, RanSubView
from repro.multicast.tree import MulticastTree, TreeNode
from repro.overlay.validation import require_range


@dataclass(frozen=True)
class BulletConfig:
    """Tunables of a dissemination session."""

    #: Number of packets the chunk is divided into (paper: 1000).
    total_packets: int = 1000
    #: RanSub view size as a fraction of the tree population (paper: 3 %-16 %).
    ransub_fraction: float = 0.16
    #: Packets a parent can push to each child per epoch.
    link_capacity: int = 10
    #: Packets that can be pulled from one mesh peer per epoch.
    peer_capacity: int = 5
    #: Total packets a vertex can download per epoch (push + pull combined).
    download_capacity: int = 25
    #: Hard stop on epochs even if dissemination has not completed.
    max_epochs: int = 2000

    def __post_init__(self) -> None:
        for name, low in (("total_packets", 1), ("link_capacity", 0), ("peer_capacity", 0),
                          ("download_capacity", 1), ("max_epochs", 1)):
            require_range(name, getattr(self, name), low)
        require_range("ransub_fraction", self.ransub_fraction, 0.0, 1.0, "(]")


@dataclass(frozen=True)
class EpochStats:
    """Per-epoch packet counts across the non-source vertices."""

    epoch: int
    minimum: float
    average: float
    maximum: float
    complete_leaves: int


class BulletSession:
    """One replica-dissemination run over a given tree."""

    def __init__(
        self,
        tree: MulticastTree,
        config: Optional[BulletConfig] = None,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        self.tree = tree
        self.config = config or BulletConfig()
        self.rng = rng or np.random.default_rng(0)
        subset_size = max(1, int(round(self.config.ransub_fraction * len(tree))))
        self.ransub = RanSubProtocol(tree, subset_size=subset_size, rng=self.rng)
        #: Packets held per vertex label (the root/source starts with all).
        self.packets: Dict[int, Set[int]] = {
            node.label: set() for node in tree.nodes()
        }
        self.packets[tree.root.label] = set(range(self.config.total_packets))
        self.history: List[EpochStats] = []

    # -- helpers -----------------------------------------------------------------
    def _transfer(self, source_label: int, dest_label: int, budget: int) -> int:
        """Move up to ``budget`` packets the destination lacks; returns how many."""
        if budget <= 0:
            return 0
        candidates = list(self.packets[source_label] - self.packets[dest_label])
        if not candidates:
            return 0
        if len(candidates) > budget:
            picks = self.rng.choice(len(candidates), size=budget, replace=False)
            chosen = [candidates[int(index)] for index in picks]
        else:
            chosen = candidates
        self.packets[dest_label].update(chosen)
        return len(chosen)

    def node_packet_count(self, label: int) -> int:
        """Packets currently held by a vertex."""
        return len(self.packets[label])

    def leaves_complete(self) -> int:
        """Number of leaf vertices holding the full chunk."""
        return sum(
            1
            for leaf in self.tree.leaves()
            if len(self.packets[leaf.label]) >= self.config.total_packets
        )

    def is_complete(self) -> bool:
        """Whether every leaf (replica recipient) holds the full chunk."""
        return self.leaves_complete() == len(self.tree.leaves())

    # -- epoch loop ----------------------------------------------------------------
    def run_epoch(self) -> EpochStats:
        """Run one RanSub refresh plus one round of push/pull transfers."""
        views: Dict[int, RanSubView] = self.ransub.run_epoch(self.node_packet_count)

        # Process vertices in breadth-first order so data flows down the tree
        # within an epoch the same way Bullet's recursive push does.
        order: List[TreeNode] = []
        frontier = [self.tree.root]
        while frontier:
            node = frontier.pop(0)
            order.append(node)
            frontier.extend(node.children)

        for node in order:
            if node.is_root:
                continue
            budget = self.config.download_capacity
            # Tree push from the parent.
            assert node.parent is not None
            received = self._transfer(
                node.parent.label, node.label, min(budget, self.config.link_capacity)
            )
            budget -= received
            # Mesh pulls from RanSub peers that hold something we lack.
            view = views.get(node.label)
            if view is not None and budget > 0:
                peers = [
                    member
                    for member in view.members
                    if member.label != node.label and member.packets_held > 0
                ]
                # Prefer peers advertising more data (Bullet picks peers whose
                # content overlaps least with what the receiver already has;
                # advertised volume is the available proxy).
                peers.sort(key=lambda member: -member.packets_held)
                for member in peers:
                    if budget <= 0:
                        break
                    pulled = self._transfer(
                        member.label, node.label, min(budget, self.config.peer_capacity)
                    )
                    budget -= pulled

        counts = np.asarray(
            [len(self.packets[node.label]) for node in self.tree.nodes() if not node.is_root],
            dtype=float,
        )
        stats = EpochStats(
            epoch=len(self.history) + 1,
            minimum=float(counts.min()) if counts.size else 0.0,
            average=float(counts.mean()) if counts.size else 0.0,
            maximum=float(counts.max()) if counts.size else 0.0,
            complete_leaves=self.leaves_complete(),
        )
        self.history.append(stats)
        return stats

    def run(self, until_complete: bool = True, epochs: Optional[int] = None) -> List[EpochStats]:
        """Run epochs until every leaf holds the chunk (or a fixed epoch count)."""
        limit = epochs if epochs is not None else self.config.max_epochs
        for _ in range(limit):
            self.run_epoch()
            if until_complete and epochs is None and self.is_complete():
                break
        return self.history
