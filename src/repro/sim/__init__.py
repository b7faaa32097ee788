"""Discrete-event simulation kernel.

This package is the bottom of the substrate stack: a deterministic event
loop (:class:`SimLoop`), scheduled events (:class:`Event`), and seeded
randomness (:class:`SimRandom`).  Everything above it — the network, the
cluster, the five systems under test — expresses behaviour as events on
one loop, which is what lets CrashTuner inject a crash at an exact program
point and observe a reproducible outcome.
"""

from repro.sim.events import Event
from repro.sim.loop import SimLoop
from repro.sim.rng import SimRandom, stable_hash

__all__ = [
    "Event",
    "SimLoop",
    "SimRandom",
    "stable_hash",
]
