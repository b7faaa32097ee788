"""Deterministic random-number utilities for the simulation.

Every stochastic choice in the substrate (network latency, workload key
selection, baseline injection times) flows through a :class:`SimRandom`
seeded from the run configuration, so a simulation is a pure function of
``(system, workload, seed, injection plan)``.  Sub-streams are derived by
name so that adding a consumer does not perturb unrelated streams.
"""

from __future__ import annotations

import hashlib
import random
import zlib
from typing import Sequence, TypeVar

T = TypeVar("T")


def stable_hash(text: str) -> int:
    """A process-independent string hash.

    Python's builtin ``hash`` is salted per interpreter process, which
    would make placement decisions (region routing, pod scheduling) differ
    between runs of the test suite.  Everything in the substrate that
    needs hash-based placement goes through this function instead.
    """
    return zlib.crc32(text.encode())


class SimRandom:
    """A seeded random source with named, independent sub-streams."""

    def __init__(self, seed: int = 0):
        self.seed = int(seed)
        self._root = random.Random(self.seed)

    def stream(self, name: str) -> random.Random:
        """Derive an independent generator for ``name``.

        The derivation hashes ``(seed, name)`` so streams are stable across
        runs and insensitive to the order in which they are created.
        """
        digest = hashlib.sha256(f"{self.seed}:{name}".encode()).digest()
        return random.Random(int.from_bytes(digest[:8], "big"))

    # Convenience pass-throughs on the root stream -----------------------
    def uniform(self, lo: float, hi: float) -> float:
        return self._root.uniform(lo, hi)

    def randint(self, lo: int, hi: int) -> int:
        return self._root.randint(lo, hi)

    def choice(self, seq: Sequence[T]) -> T:
        return self._root.choice(seq)

    def shuffle(self, seq: list) -> None:
        self._root.shuffle(seq)
