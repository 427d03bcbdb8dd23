"""RanSub: epoch-based random-subset dissemination over a tree.

RanSub (Kostic et al., USITS 2003) gives every vertex of a tree a uniformly
random subset of the participants, refreshed every epoch, using two phases:

* **collect** -- leaves send a descriptor of themselves up the tree; every
  interior vertex merges its children's sets with its own descriptor and
  *compacts* the union down to the configured subset size by uniform sampling
  before forwarding it to its parent;
* **distribute** -- the root pushes its compacted set down; each vertex merges
  what it receives from its parent with the sets collected from its own
  subtree (excluding descendants it forwards to), again compacting to the
  subset size.

The descriptors carry "what data those nodes have received" (the paper's
wording): here, the number of packets a node holds, which Bullet uses to pick
peers worth pulling missing packets from.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Sequence

import numpy as np

from repro.multicast.tree import MulticastTree, TreeNode
from repro.overlay.validation import require_range


@dataclass(frozen=True)
class MemberDescriptor:
    """What one participant advertises through RanSub."""

    label: int
    packets_held: int


@dataclass
class RanSubView:
    """The random subset a vertex ends an epoch with."""

    epoch: int
    members: List[MemberDescriptor] = field(default_factory=list)


class RanSubProtocol:
    """Runs the collect/distribute phases of RanSub over a multicast tree."""

    def __init__(
        self,
        tree: MulticastTree,
        subset_size: int,
        rng: np.random.Generator,
    ) -> None:
        self.subset_size = require_range("subset_size", subset_size, 1)
        self.tree = tree
        self.rng = rng
        self.epoch = 0
        #: Messages exchanged during the last epoch (collect + distribute).
        self.messages_last_epoch = 0

    def _compact(self, members: Sequence[MemberDescriptor]) -> List[MemberDescriptor]:
        """Uniformly sample the members down to the subset size."""
        unique: Dict[int, MemberDescriptor] = {member.label: member for member in members}
        pool = list(unique.values())
        if len(pool) <= self.subset_size:
            return pool
        picks = self.rng.choice(len(pool), size=self.subset_size, replace=False)
        return [pool[int(index)] for index in picks]

    def run_epoch(self, packets_held: Callable[[int], int]) -> Dict[int, RanSubView]:
        """Run one collect + distribute round.

        ``packets_held`` maps a vertex label to the number of packets that
        vertex currently holds (supplied by the Bullet session).  Returns the
        per-vertex views for this epoch.
        """
        self.epoch += 1
        self.messages_last_epoch = 0
        collected: Dict[int, List[MemberDescriptor]] = {}

        def descriptor(node: TreeNode) -> MemberDescriptor:
            return MemberDescriptor(label=node.label, packets_held=packets_held(node.label))

        # Collect phase (post-order): children report up, parents compact.
        def collect(node: TreeNode) -> List[MemberDescriptor]:
            gathered: List[MemberDescriptor] = [descriptor(node)]
            for child in node.children:
                gathered.extend(collect(child))
                self.messages_last_epoch += 1  # child -> parent message
            compacted = self._compact(gathered)
            collected[node.label] = compacted
            return compacted

        collect(self.tree.root)

        # Distribute phase (pre-order): parents push their view down; each
        # vertex merges what it hears from its parent with what it collected
        # from the rest of the tree (its own compacted set), and compacts.
        views: Dict[int, RanSubView] = {}

        def distribute(node: TreeNode, from_parent: List[MemberDescriptor]) -> None:
            merged = self._compact(list(from_parent) + collected[node.label])
            views[node.label] = RanSubView(epoch=self.epoch, members=merged)
            for child in node.children:
                self.messages_last_epoch += 1  # parent -> child message
                # The paper notes the distribute message carries the RanSubs of
                # the sender, of the sender's parent, and of the sender's other
                # children -- i.e. everything the sender knows except the
                # receiving child's own subtree.
                sibling_info: List[MemberDescriptor] = []
                for sibling in node.children:
                    if sibling is not child:
                        sibling_info.extend(collected[sibling.label])
                distribute(child, self._compact(merged + sibling_info))

        distribute(self.tree.root, [descriptor(self.tree.root)])
        return views
