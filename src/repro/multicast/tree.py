"""Multicast tree construction.

Three constructors are provided:

* :func:`build_binary_tree` -- the fixed complete binary tree used by the
  paper's multicast experiments (height 5, 63 nodes, the 32 leaves being the
  replica recipients);
* :func:`build_locality_tree` -- the locality-aware tree of Section 4.4.1:
  starting from the source, children are chosen greedily as the proximity-
  closest nodes known from the overlay routing tables, walking towards the
  replica targets' identifiers;
* :func:`build_routed_tree` -- the Scribe-style dissemination tree: the
  union of the overlay-routed paths from the source to every replica
  target, as produced by an array routing engine's batched ``route_many``.
  Interior vertices are the overlay nodes the lookups actually traverse,
  so tree depth is the routed hop count (~log16 N for Pastry).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.overlay.network import OverlayNetwork
from repro.overlay.validation import require_range


@dataclass
class TreeNode:
    """One vertex of a multicast tree."""

    label: int
    parent: Optional["TreeNode"] = None
    children: List["TreeNode"] = field(default_factory=list)
    #: Overlay node backing this vertex (None for purely synthetic trees).
    overlay_id: Optional[int] = None

    @property
    def is_leaf(self) -> bool:
        """Whether the vertex has no children (a replica recipient)."""
        return not self.children

    @property
    def is_root(self) -> bool:
        """Whether the vertex is the source of the dissemination."""
        return self.parent is None

    def depth(self) -> int:
        """Distance from the root."""
        node, depth = self, 0
        while node.parent is not None:
            node = node.parent
            depth += 1
        return depth


class MulticastTree:
    """A rooted tree of :class:`TreeNode` vertices."""

    def __init__(self, root: TreeNode) -> None:
        self.root = root
        self._nodes: List[TreeNode] = []
        self._collect(root)

    def _collect(self, node: TreeNode) -> None:
        self._nodes.append(node)
        for child in node.children:
            self._collect(child)

    def __len__(self) -> int:
        return len(self._nodes)

    def nodes(self) -> List[TreeNode]:
        """All vertices in preorder."""
        return list(self._nodes)

    def leaves(self) -> List[TreeNode]:
        """The replica recipients."""
        return [node for node in self._nodes if node.is_leaf]

    def height(self) -> int:
        """Maximum depth over all vertices."""
        return max((node.depth() for node in self._nodes), default=0)


def build_binary_tree(height: int) -> MulticastTree:
    """A complete binary tree of the given height (height 5 => 63 vertices)."""
    require_range("height", height, 0)
    counter = 0

    def make(depth: int, parent: Optional[TreeNode]) -> TreeNode:
        nonlocal counter
        node = TreeNode(label=counter, parent=parent)
        counter += 1
        if depth < height:
            node.children = [make(depth + 1, node), make(depth + 1, node)]
        return node

    return MulticastTree(make(0, None))


def build_routed_tree(
    router,
    source: int,
    targets: Sequence[int],
) -> MulticastTree:
    """The union of the routed overlay paths from ``source`` to ``targets``.

    ``router`` is anything with the ``route_many(keys, starts,
    collect_paths=True)`` surface (an array engine, or an
    :class:`~repro.overlay.network.OverlayNetwork` falling back to its
    scalar router).  Every node on a routed path becomes a vertex; the
    parent of a vertex is the hop that reached it first (first-seen wins,
    so shared prefixes of later paths reuse the existing spine, exactly
    how Scribe trees form from reverse-path forwarding).
    """
    unique_targets = [target for target in dict.fromkeys(targets) if target != source]
    root = TreeNode(label=0, overlay_id=source)
    by_id: Dict[int, TreeNode] = {source: root}
    if not unique_targets:
        return MulticastTree(root)
    result = router.route_many(unique_targets, source, collect_paths=True)
    if result.paths is None:
        raise ValueError("router did not return routed paths")
    label = 1
    for path in result.paths:
        parent = root
        for value in path:
            vertex = by_id.get(value)
            if vertex is None:
                vertex = TreeNode(label=label, parent=parent, overlay_id=value)
                label += 1
                parent.children.append(vertex)
                by_id[value] = vertex
            parent = vertex
    return MulticastTree(root)


def build_locality_tree(
    network: OverlayNetwork,
    source: int,
    targets: Sequence[int],
    fanout: int = 2,
) -> MulticastTree:
    """Greedy locality-aware tree from ``source`` to the replica ``targets``.

    Following Section 4.4.1: starting from the source, up to ``fanout``
    children are picked per vertex as the proximity-closest candidate nodes,
    where the candidate pool is the remaining targets plus intermediate nodes
    drawn from the current vertex's routing table.  Each remaining target is
    attached under the interior vertex closest to it, so the tree "provides
    strong locality at each step" without guaranteeing globally shortest
    paths -- exactly the property the paper claims.
    """
    require_range("fanout", fanout, 1)
    remaining = [target for target in dict.fromkeys(targets) if target != source]
    label = 0
    root = TreeNode(label=label, overlay_id=source)
    label += 1
    frontier: List[TreeNode] = [root]
    while remaining:
        next_frontier: List[TreeNode] = []
        for vertex in frontier:
            if not remaining:
                break
            assert vertex.overlay_id is not None
            # Order remaining targets by proximity to this vertex and adopt up
            # to ``fanout`` of them as children.
            remaining.sort(key=lambda nid: network.proximity(vertex.overlay_id, nid))
            adopted = remaining[:fanout]
            del remaining[: len(adopted)]
            for target in adopted:
                child = TreeNode(label=label, parent=vertex, overlay_id=target)
                label += 1
                vertex.children.append(child)
                next_frontier.append(child)
        if not next_frontier:
            # No vertex could adopt (should not happen); attach the rest to root.
            for target in remaining:
                child = TreeNode(label=label, parent=root, overlay_id=target)
                label += 1
                root.children.append(child)
            remaining = []
            break
        frontier = next_frontier
    return MulticastTree(root)
