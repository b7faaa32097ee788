"""IO fault injection (paper Section 4.2.2, Table 9).

For each dynamic IO point, two test runs: crash the executing node
*before* the IO operation (the op never happens) and *after* it (the
handler finishes the op, then the machine dies).  The runs are plan
entries (:class:`IOFault`) of one campaign on the executor, so the same
oracles and the same attribution as CrashTuner apply.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

from repro.cluster.io import io_keys
from repro.cluster.state import BUS, AccessEvent
from repro.core.baselines.io_points import DynamicIOPoint, IOPointReport
from repro.core.injection.campaign import (
    BugMatcherFn,
    CampaignConfig,
    CampaignResult,
    _coerce_campaign,
    run_campaign,
)
from repro.core.injection.control_center import ControlCenter
from repro.core.injection.oracles import Baseline
from repro.core.injection.trigger import DirectTrigger
from repro.errors import NodeCrashedError
from repro.systems.base import SystemUnderTest


@dataclass(frozen=True)
class IOFault:
    """Crash the machine executing ``dpoint`` on one side of its IO op."""

    dpoint: DynamicIOPoint
    phase: str  # "before" | "after"

    @property
    def scale(self) -> int:
        return self.dpoint.scale

    def key(self) -> Tuple:
        return ("io", self.dpoint.point.location, self.dpoint.stack, self.phase)

    def describe(self) -> str:
        point, frames = self.dpoint.point, " > ".join(self.dpoint.stack) or "?"
        return (f"crash {self.phase} {point.method} at "
                f"{point.module}:{point.lineno} [{frames}]")

    def arm(self, cluster: Any, analysis: Any, cfg: CampaignConfig,
            on_fired: Any = None) -> Tuple[None, "_IOTrigger"]:
        return None, _IOTrigger(self, ControlCenter(cluster))


class _IOTrigger(DirectTrigger):
    """An :class:`IOFault` armed on the access bus, keyed to its phase of
    its point's IO method.  The call site names the method, not the
    stream's class, so the keys span every stream class with that method;
    an event of another method at the same site (the ``read`` calls a
    ``read_all`` makes there) is on another pair."""

    def __init__(self, entry: IOFault, center: ControlCenter):
        super().__init__(center)
        self.entry = entry
        BUS.add_hook(self, keys=io_keys(entry.phase, entry.dpoint.point.method))
        self._installed = True

    def __call__(self, event: AccessEvent) -> None:
        dpoint = self.entry.dpoint
        if event.location != dpoint.point.location or event.stack != dpoint.stack:
            return
        self.uninstall()
        node = self.center.cluster.nodes.get(event.node)
        # The machine dies at the IO instruction: before it executes, or
        # right after it completed ("after" events fire post-op), killing
        # the rest of the handler either way.
        self.fire("crash", node.host if node is not None else None)
        if node is not None:
            raise NodeCrashedError(event.node)

    def uninstall(self) -> None:
        if self._installed:
            BUS.remove_hook(self)
            self._installed = False


def run_io_injection(
    system: SystemUnderTest,
    io_report: IOPointReport,
    campaign: Optional[CampaignConfig] = None,
    config: Optional[Dict[str, Any]] = None,
    baseline: Optional[Baseline] = None,
    matcher: Optional[BugMatcherFn] = None,
    phases: tuple = ("before", "after"),
) -> CampaignResult:
    """Exercise each dynamic IO point with before/after crashes.

    ``campaign`` sets the seed, workers, journal and execution as for
    :func:`~repro.core.injection.run_campaign`; a flagged hang is judged
    at its deadline (``classify_timeouts`` is off).
    """
    cfg = _coerce_campaign(campaign, "run_io_injection").replace(
        classify_timeouts=False)
    plan = [IOFault(dpoint, phase)
            for dpoint in io_report.dynamic_points for phase in phases]
    return run_campaign(system, None, plan, campaign=cfg, config=config,
                        baseline=baseline, matcher=matcher)
