"""Baseline storage systems the paper compares against.

* :mod:`repro.baselines.past` -- PAST: whole files are stored on the node the
  file name hashes to, with salted-rehash retries and k-replica placement on
  leaf-set neighbours.
* :mod:`repro.baselines.cfs` -- CFS: files are split into fixed-size blocks,
  each placed on the node its content/name hash maps to, replicated on the k
  successors of the block key.

Both baselines are implemented against the same DHT view and node population
as the proposed system, and speak its store contract: they share its ledger
wiring (:class:`~repro.core.storage.LedgerStore`), answer ``store_file`` with
the one :class:`~repro.overlay.node.StoreResult`, and CFS answers the same
``chunk_sizes`` layout query, so the comparison (Figures 7-9, Table 1) is
apples-to-apples.
"""

from repro.baselines.past import PastStore
from repro.baselines.cfs import CfsStore

__all__ = ["PastStore", "CfsStore"]
