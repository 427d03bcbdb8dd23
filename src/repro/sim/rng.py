"""Deterministic random-number streams.

Every stochastic element of the reproduction (node id assignment, node
capacities, file sizes, failure order, RanSub sampling, ...) draws from a
*named* stream derived from one experiment seed.  This means:

* experiments are exactly reproducible from their seed;
* changing how many numbers one component consumes does not perturb the
  randomness seen by other components (no accidental coupling);
* the paper's "each case was simulated ten times" averaging is implemented by
  incrementing a single replication index.
"""

from __future__ import annotations

import hashlib
from typing import Dict

import numpy as np


def derive_seed(base_seed: int, *names: object) -> int:
    """Derive a child seed from ``base_seed`` and a sequence of labels.

    The derivation hashes the labels with SHA-256 so that distinct label
    tuples give independent, well-mixed seeds regardless of how "close" the
    labels are (e.g. replication 1 vs replication 2).
    """
    hasher = hashlib.sha256()
    hasher.update(str(int(base_seed)).encode("utf-8"))
    for name in names:
        hasher.update(b"\x00")
        hasher.update(str(name).encode("utf-8"))
    return int.from_bytes(hasher.digest()[:8], "big")


class RandomStreams:
    """A factory of named, independent :class:`numpy.random.Generator` streams."""

    def __init__(self, seed: int) -> None:
        self.seed = int(seed)
        self._streams: Dict[str, np.random.Generator] = {}

    def stream(self, *names: object) -> np.random.Generator:
        """Return (creating if needed) the generator for the given label path."""
        key = "/".join(str(name) for name in names)
        if key not in self._streams:
            self._streams[key] = np.random.default_rng(derive_seed(self.seed, *names))
        return self._streams[key]

    def fresh(self, *names: object) -> np.random.Generator:
        """Return a brand-new generator for the label path (never cached)."""
        return np.random.default_rng(derive_seed(self.seed, *names))

    def spawn(self, *names: object) -> "RandomStreams":
        """Return a child :class:`RandomStreams` rooted at the label path."""
        return RandomStreams(derive_seed(self.seed, *names))
