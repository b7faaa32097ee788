"""CrashTuner phase 1, step 3: the Profiler (paper Section 3.1.3).

Runs the workload, records which static crash points actually execute and
under which bounded call stacks (dynamic crash points), and doubles the
workload size until no new dynamic crash points appear.
"""

from repro.core.profiler.profiler import (
    DynamicCrashPoint,
    PointIndex,
    ProfileResult,
    double_to_fixpoint,
    profile_system,
)

__all__ = ["DynamicCrashPoint", "PointIndex", "ProfileResult",
           "double_to_fixpoint", "profile_system"]
