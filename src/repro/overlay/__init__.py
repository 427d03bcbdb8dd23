"""Pastry-style structured peer-to-peer overlay.

The paper builds its storage system on Pastry/FreePastry.  This package is a
from-scratch Python reproduction of the parts the storage system actually
relies on:

* a circular 160-bit identifier space shared by node ids and object keys,
  each a plain ``int`` (:mod:`repro.overlay.ids`);
* per-node identity, liveness and storage bookkeeping
  (:mod:`repro.overlay.node`);
* a simulated directly-connected network of overlay nodes supporting join,
  leave, failure, and message routing with hop counts through the attached
  routing engine (:mod:`repro.overlay.network`);
* a fast *oracle* DHT view (sorted-id bisect) that resolves keys to live nodes
  with the same result the converged overlay would produce; the large-scale
  insertion experiments use this view, exactly like the paper's FreePastry
  "simulator mode" uses a directly-connected network
  (:mod:`repro.overlay.dht`);
* array-backed routing engines behind the pluggable
  :class:`~repro.overlay.engine.OverlayRouting` protocol -- a vectorized
  Pastry engine holding every node's proximity-aware prefix routing table in
  one dense array and reading leaf sets out of the sorted live-id order
  (:mod:`repro.overlay.engine_pastry`; pinned path for path against the
  per-node reference router kept under ``tests/reference/seed_pastry.py``)
  and a Chord ring for head-to-head comparisons
  (:mod:`repro.overlay.engine_chord`), both driving batched ``route_many``
  lookups at 10k-100k nodes (:mod:`repro.overlay.engine`).
"""

from repro.overlay.ids import (
    ID_BITS,
    ID_SPACE,
    distance,
    key_for,
    random_node_id,
)
from repro.overlay.node import OverlayNode
from repro.overlay.node_state import NodeArrayState
from repro.overlay.network import OverlayNetwork, RouteResult
from repro.overlay.dht import DHTView
from repro.overlay.engine import (
    BatchRouteResult,
    OverlayRouting,
    ROUTER_ENGINES,
    make_router,
)
from repro.overlay.engine_pastry import PastryArrayRouter
from repro.overlay.engine_chord import ChordArrayRouter

__all__ = [
    "ID_BITS",
    "ID_SPACE",
    "distance",
    "key_for",
    "random_node_id",
    "NodeArrayState",
    "OverlayNode",
    "OverlayNetwork",
    "RouteResult",
    "DHTView",
    "BatchRouteResult",
    "OverlayRouting",
    "ROUTER_ENGINES",
    "make_router",
    "PastryArrayRouter",
    "ChordArrayRouter",
]
