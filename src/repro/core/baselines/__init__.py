"""The two fault-injection baselines of Section 4.2, as campaign plans."""

from repro.core.baselines.io_injection import IOFault, run_io_injection
from repro.core.baselines.io_points import (
    DynamicIOPoint,
    IOPointReport,
    StaticIOPoint,
    find_io_points,
    profile_io_points,
)
from repro.core.baselines.random_injection import (
    TimedFault,
    counted_bugs,
    discounted,
    run_random_injection,
)

__all__ = [
    "DynamicIOPoint",
    "IOFault",
    "IOPointReport",
    "StaticIOPoint",
    "TimedFault",
    "counted_bugs",
    "discounted",
    "find_io_points",
    "profile_io_points",
    "run_io_injection",
    "run_random_injection",
]
