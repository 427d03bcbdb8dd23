"""Per-node ``{name: size}`` dicts recorded from the calls that move bytes on and off a disk.

A node keeps no list of its blocks: the block ledger derives every name, and
``OverlayNode.stored_blocks`` is a view of the ledger.  An oracle that walked
``stored_blocks`` would therefore read the ledger back to itself.
:class:`BlockRecorder` keeps the seed's per-node dicts instead, from the three
calls through which a copy lands on or leaves a disk -- ``store_block``,
``remove_block``, ``release_block`` and a wiping ``recover`` -- so ``dict_walk``
audits the ledger against something the ledger never wrote.

It also holds every caller to the seed's rule that a node never takes a second
copy of a name it holds: the seed's ``store_block`` refused one, and now the
caller passes the block's on-disk holders as ``store_block``'s ``exclude``
argument, which the node refuses.  A store that would land a duplicate raises
``AssertionError``, as does an excluded store that changes anything (a
recorded name, the node's ``used``, an index's ``used_total``), a
``remove_block`` whose answer differs from the seed's (the node refuses
exactly the names it does not hold), and taking back a block the node does
not hold, or one of another size.

Use it as a context manager (or the ``block_recorder`` fixture of
``tests/conftest.py``); :func:`current` is the active recorder.  Nothing under
``src/`` imports this module.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.overlay.node import OverlayNode

_ACTIVE: Optional["BlockRecorder"] = None


def current() -> "BlockRecorder":
    """The recorder watching the nodes right now."""
    if _ACTIVE is None:
        raise RuntimeError("no BlockRecorder is active (use the block_recorder fixture)")
    return _ACTIVE


class BlockRecorder:
    """The seed's ``stored_blocks`` dicts, rebuilt from the storage calls."""

    def __init__(self) -> None:
        # id(node) -> (node, its dict); holding the node keeps its id unique.
        self._held: Dict[int, Tuple[OverlayNode, Dict[str, int]]] = {}
        self._saved: tuple = ()

    def blocks(self, node: OverlayNode) -> Dict[str, int]:
        """The names and sizes of the blocks on ``node``'s disk (a live dict)."""
        entry = self._held.get(id(node))
        if entry is None:
            entry = self._held[id(node)] = (node, {})
        return entry[1]

    def has_block(self, node: OverlayNode, name: str) -> bool:
        """The seed's ``has_block``: the node is up and holds ``name``."""
        return node.alive and name in self.blocks(node)

    # -- the wrapped calls ---------------------------------------------------------
    def __enter__(self) -> "BlockRecorder":
        global _ACTIVE
        assert _ACTIVE is None, "recorders do not nest"
        store, remove, release, recover = self._saved = (
            OverlayNode.store_block, OverlayNode.remove_block, OverlayNode.release_block,
            OverlayNode.recover)
        blocks = self.blocks

        def store_block(node: OverlayNode, block_name: str, size: int, exclude=()) -> bool:
            held = blocks(node)
            if node.serial in exclude:
                before = (node.used, [index.used_total for index in node._usage_listeners],
                          dict(held))
                assert not store(node, block_name, size, exclude), (node.node_id, block_name)
                assert before == (node.used, [index.used_total for index in node._usage_listeners],
                                  held), (node.node_id, block_name)
                return False
            if node.alive and size >= 0:
                assert block_name not in held, (
                    f"node {node.node_id} offered a second copy of {block_name!r}")
            stored = store(node, block_name, size, exclude)
            if stored:
                held[block_name] = int(size)
            return stored

        def remove_block(node: OverlayNode, block_name: str, size: int) -> bool:
            held = blocks(node)
            removed = remove(node, block_name, size)
            assert removed == (block_name in held), (node.node_id, block_name, removed)
            if removed:
                assert held.pop(block_name) == size, (node.node_id, block_name, size)
            return removed

        def release_block(node: OverlayNode, block_name: str, size: int) -> bool:
            released = release(node, block_name, size)
            if released:
                held = blocks(node).pop(block_name, None)
                assert held == size, (node.node_id, block_name, held, size)
            return released

        def recover_node(node: OverlayNode, wipe: bool = True) -> None:
            if wipe:
                blocks(node).clear()
            recover(node, wipe)

        OverlayNode.store_block = store_block
        OverlayNode.remove_block = remove_block
        OverlayNode.release_block = release_block
        OverlayNode.recover = recover_node
        _ACTIVE = self
        return self

    def __exit__(self, *exc) -> None:
        global _ACTIVE
        (OverlayNode.store_block, OverlayNode.remove_block, OverlayNode.release_block,
         OverlayNode.recover) = self._saved
        _ACTIVE = None
