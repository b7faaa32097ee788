"""The Profiler: static crash points -> executed dynamic crash points."""

from __future__ import annotations

import time as _wallclock
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.cluster.state import BUS, AccessEvent
from repro.core.analysis import AnalysisReport
from repro.core.analysis.static_points import AccessPoint
from repro.systems.base import SystemUnderTest, run_workload


@dataclass(frozen=True)
class DynamicCrashPoint:
    """Definition 1: a tuple <P, Context>.

    ``stack`` is the bounded call string (depth <= 5), entries formatted
    ``module.qualname:line``, innermost first.  ``scale`` records the
    workload size at which the profiler first saw this point, so the
    injection phase can reproduce the execution that reaches it.
    """

    point: AccessPoint
    stack: Tuple[str, ...]
    scale: int = 1

    def key(self) -> Tuple:
        return (self.point.module, self.point.lineno, self.point.op,
                self.point.field_cls, self.point.field_name, self.stack)

    def describe(self) -> str:
        frames = " > ".join(self.stack) if self.stack else "?"
        return f"{self.point.describe()} [{frames}]"

    def arm(self, cluster: Any, analysis: AnalysisReport, cfg: Any,
            on_fired: Optional[Callable[[int], None]] = None) -> Tuple[Any, Any]:
        """Install this point's trigger for one run (the plan-entry
        protocol, see :mod:`repro.core.injection.executor`)."""
        # imported lazily: the injection package imports this module
        from repro.core.injection.campaign import _arm
        from repro.core.injection.trigger import Trigger

        agent, center = _arm(cluster, analysis, cfg.wait, cfg.random_fallback)
        trigger = Trigger(self, center, on_fired=on_fired)
        trigger.install()
        return agent, trigger


class PointIndex:
    """Matches runtime access events against static crash points.

    Direct points match on (module, lineno, op, field).  Promoted points
    match when the event's *caller* frame is exactly the promoted call
    site (``module.Class.method:line``).
    """

    def __init__(self, points: List[AccessPoint]):
        self._direct: Dict[Tuple[str, int, str], List[AccessPoint]] = {}
        self._promoted: Dict[str, List[AccessPoint]] = {}
        for point in points:
            if point.promoted:
                caller = f"{point.module}.{point.enclosing}:{point.lineno}"
                self._promoted.setdefault(caller, []).append(point)
            else:
                self._direct.setdefault((point.module, point.lineno, point.op), []).append(point)

    def match(self, event: AccessEvent) -> Optional[AccessPoint]:
        for point in self._direct.get((event.location[0], event.location[1], event.op), ()):
            if (point.field_cls, point.field_name) == (event.field.cls, event.field.name):
                return point
        if event.op == "read" and len(event.stack) >= 2:
            for point in self._promoted.get(event.stack[1], ()):
                if (point.field_cls, point.field_name) == (event.field.cls, event.field.name):
                    return point
        return None


@dataclass
class ProfileResult:
    system: str
    dynamic_points: List[DynamicCrashPoint]
    iterations: int
    final_scale: int
    wall_seconds: float
    #: static crash points that never executed (discarded, per the paper)
    unexecuted: List[AccessPoint] = field(default_factory=list)


def profile_system(
    system: SystemUnderTest,
    analysis: AnalysisReport,
    seed: int = 0,
    config: Optional[Dict[str, Any]] = None,
    max_iterations: int = 3,
) -> ProfileResult:
    """Record dynamic crash points, doubling the workload to fixpoint."""
    index = PointIndex(analysis.crash.crash_points)
    found: Dict[Tuple, DynamicCrashPoint] = {}
    hit_static: set = set()
    t0 = _wallclock.perf_counter()
    scale = 1
    iterations = 0
    while iterations < max_iterations:
        iterations += 1
        before = len(found)

        def hook(event: AccessEvent, _scale: int = scale) -> None:
            if not event.node:
                # Deployment-time accesses (object construction before any
                # process runs) are not injectable: there is no running
                # node to crash yet.
                return
            point = index.match(event)
            if point is None:
                return
            hit_static.add(point.location + (point.op,))
            dpoint = DynamicCrashPoint(point=point, stack=event.stack, scale=_scale)
            found.setdefault(dpoint.key(), dpoint)

        BUS.capture_stacks = True
        BUS.add_hook(hook)
        try:
            run_workload(system, seed=seed, config=config, scale=scale,
                         keep_cluster=False)
        finally:
            BUS.remove_hook(hook)
            if not BUS.enabled:
                BUS.capture_stacks = False
        if len(found) == before:
            break  # fixpoint: doubling added nothing new
        scale *= 2

    unexecuted = [
        p for p in analysis.crash.crash_points
        if p.location + (p.op,) not in hit_static
    ]
    return ProfileResult(
        system=system.name,
        dynamic_points=sorted(found.values(), key=lambda d: d.key()),
        iterations=iterations,
        final_scale=scale,
        wall_seconds=_wallclock.perf_counter() - t0,
        unexecuted=unexecuted,
    )
