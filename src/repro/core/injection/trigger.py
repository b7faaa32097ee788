"""The Trigger: per-run instrumentation of one dynamic crash point.

In the paper, Javassist instruments exactly one crash point per test run
with a shutdown-RPC-and-wait (pre-read) or a crash RPC (post-write).  Here
the trigger is an access-bus hook armed for one
:class:`~repro.core.profiler.DynamicCrashPoint`: when a runtime access
event matches the point's location, operation, field, *and* bounded call
stack, the control center is invoked with the accessed meta-info values.
The hook is keyed to the point's ``(field, op)`` (:func:`point_key`), the
first two things :func:`point_matches` checks, so the bus builds events
for that one pair only and the rest of the world's accesses cost a set
lookup each.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from repro.cluster.state import BUS, AccessEvent, BusKey, FieldKey
from repro.core.injection.control_center import ControlCenter
from repro.core.profiler import DynamicCrashPoint


def point_key(dpoint: DynamicCrashPoint) -> BusKey:
    """The one ``(field, op)`` pair an event must be on to match ``dpoint``."""
    point = dpoint.point
    return FieldKey(point.field_cls, point.field_name), point.op


def point_matches(dpoint: DynamicCrashPoint, event: AccessEvent) -> bool:
    """Does a runtime access event match a dynamic crash point?

    Location, operation, field, and the bounded call stack must all agree;
    promoted points match their call site (second stack frame) instead of
    the physical access location.
    """
    point = dpoint.point
    if event.op != point.op:
        return False
    if (event.field.cls, event.field.name) != (point.field_cls, point.field_name):
        return False
    if point.promoted:
        if len(event.stack) < 2:
            return False
        if event.stack[1] != f"{point.module}.{point.enclosing}:{point.lineno}":
            return False
    else:
        if event.location != (point.module, point.lineno):
            return False
    return event.stack == dpoint.stack


class Trigger:
    """Arms one dynamic crash point on the global access bus.

    ``on_fired``, when set, is called with the ordinal of the dispatched
    event the point fired in (``SimLoop.events_processed`` at the fire)
    once the injection has returned — not when it raised
    :class:`~repro.errors.NodeCrashedError`, which cut the handler short.
    Given ``after``, the trigger arms only once that one has fired (the
    second point of a crash-point pair).
    """

    def __init__(self, dpoint: DynamicCrashPoint, center: ControlCenter,
                 on_fired: Optional[Callable[[int], None]] = None,
                 after: Optional["Trigger"] = None):
        self.dpoint = dpoint
        self.center = center
        self.on_fired = on_fired
        self.after = after
        self.fired = False
        self.hits = 0
        #: the runtime meta-info values observed when the point fired
        self.values: List[str] = []
        self._installed = False

    # ------------------------------------------------------------------
    def install(self) -> None:
        BUS.add_hook(self._hook, keys=[point_key(self.dpoint)])
        self._installed = True

    def uninstall(self) -> None:
        if self._installed:
            BUS.remove_hook(self._hook)
            self._installed = False

    # ------------------------------------------------------------------
    def _hook(self, event: AccessEvent) -> None:
        if self.fired or not point_matches(self.dpoint, event):
            return
        if self.after is None or self.after.fired:
            self.fire(event)

    def fire(self, event: AccessEvent) -> None:
        """Perform the injection for a matching access event.

        Split out of the hook so the snapshot execution mode can fire an
        armed point against a forked world at exactly the captured
        access event, bypassing the matching that already happened during
        the recording pass.

        A fired trigger stops listening: each dynamic crash point is
        exercised once, so its hook comes off the bus before the
        injection and the rest of the run — the instrumented wait
        included — pays for no access events on its account.  Emission
        feeds hooks only; no metric, log or system state depends on it.
        """
        self.uninstall()
        self.hits += 1
        self.fired = True  # each dynamic crash point is exercised once
        values = list(event.values)
        self.values = values
        cluster = self.center.cluster
        ordinal = cluster.loop.events_processed
        obs = cluster.obs
        if obs.enabled:
            obs.metrics.counter("inject.crash_points_visited").inc()
        with obs.tracer.span("injection", point=self.dpoint.point.describe(),
                             op=self.dpoint.point.op, node=event.node):
            if self.dpoint.point.op == "read":
                self.center.shutdown_rpc(values, event.node)
            else:
                self.center.crash_rpc(values, event.node)
        if self.on_fired is not None:
            self.on_fired(ordinal)


class DirectTrigger:
    """A baseline entry's trigger: whoever owns its hook calls :meth:`fire`
    with a target of its own choosing; no meta-info value is read."""

    def __init__(self, center: ControlCenter):
        self.center = center
        self.fired = False
        self.hits = 0
        self.values: List[str] = []

    def fire(self, kind: str, host: Optional[str]) -> None:
        self.fired = True
        self.hits = 1
        if host is not None:
            self.center.deliver(kind, host)

    def uninstall(self) -> None:
        pass
