"""Multi-crash-event injection — the paper's Section 6 future work.

The paper scopes itself to bugs triggered by **one** crash event and
explicitly defers "deep bugs involving multiple crash events" (34 of the
116 database bugs were omitted for this reason).  This extension explores
that space with the same meta-info machinery: a test run arms an *ordered
pair* of dynamic crash points (:class:`CrashPair`) — the second trigger
only arms after the first has fired — so recovery-of-recovery paths get
exercised.  The pairs are plan entries of one campaign on the executor.

Pair selection keeps the campaign quadratic-safe: only pairs whose
second point lives in a *different* enclosing method than the first are
tried, capped by ``max_pairs``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.core.analysis import AnalysisReport
from repro.core.injection.campaign import (
    BugMatcherFn,
    CampaignConfig,
    CampaignResult,
    _arm,
    _coerce_campaign,
)
from repro.core.injection.control_center import ControlCenter
from repro.core.injection.executor import run_campaign
from repro.core.injection.oracles import Baseline
from repro.core.injection.trigger import Trigger
from repro.core.profiler import DynamicCrashPoint
from repro.systems.base import SystemUnderTest


@dataclass(frozen=True)
class CrashPair:
    """An ordered pair of dynamic crash points, run at the larger of their
    two profiled scales (each point needs its own to be reached)."""

    first: DynamicCrashPoint
    second: DynamicCrashPoint

    @property
    def scale(self) -> int:
        return max(self.first.scale, self.second.scale)

    def key(self) -> Tuple:
        return ("pair", self.first.key(), self.second.key())

    def describe(self) -> str:
        return f"{self.first.describe()} then {self.second.describe()}"

    def arm(self, cluster: Any, analysis: AnalysisReport, cfg: CampaignConfig,
            on_fired: Any = None) -> Tuple[Any, "_ArmedPair"]:
        agent, center = _arm(cluster, analysis, cfg.wait, cfg.random_fallback)
        first = Trigger(self.first, center)
        # a center executes one fault per run: the second needs its own
        second = Trigger(self.second, ControlCenter(
            cluster, center.store, wait=cfg.wait,
            random_fallback=cfg.random_fallback), after=first)
        first.install()
        second.install()
        return agent, _ArmedPair(first, second)


class _ArmedPair:
    """Both triggers of a pair, as the judge reads one: fired once the
    first point fired, ``hits`` counts the points that fired, and the
    ``center`` is the one that delivered the last fault."""

    def __init__(self, first: Trigger, second: Trigger):
        self.first = first
        self.second = second

    @property
    def fired(self) -> bool:
        return self.first.fired

    @property
    def hits(self) -> int:
        return self.first.hits + self.second.hits

    @property
    def values(self) -> List[str]:
        return self.first.values + self.second.values

    @property
    def center(self) -> ControlCenter:
        return (self.second if self.second.center.injection else self.first).center

    def uninstall(self) -> None:
        self.first.uninstall()
        self.second.uninstall()


def select_pairs(points: List[DynamicCrashPoint],
                 max_pairs: int) -> List[CrashPair]:
    """Ordered pairs across distinct enclosing methods, deterministic."""
    return [CrashPair(first, second) for first in points for second in points
            if first.point.enclosing != second.point.enclosing][:max_pairs]


def run_multi_crash_campaign(
    system: SystemUnderTest,
    analysis: AnalysisReport,
    points: List[DynamicCrashPoint],
    campaign: Optional[CampaignConfig] = None,
    config: Optional[Dict[str, Any]] = None,
    baseline: Optional[Baseline] = None,
    matcher: Optional[BugMatcherFn] = None,
    max_pairs: int = 40,
) -> CampaignResult:
    """Exercise ordered pairs of dynamic crash points, one run each.

    ``campaign`` sets the seed, wait, workers, journal and execution as
    for :func:`~repro.core.injection.run_campaign`; a flagged hang is
    judged at its deadline (``classify_timeouts`` is off).  An outcome's
    ``fired`` is the first point's; ``diagnosis.hits == 2`` says the
    second fired too.
    """
    cfg = _coerce_campaign(campaign, "run_multi_crash_campaign").replace(
        classify_timeouts=False)
    return run_campaign(system, analysis, select_pairs(points, max_pairs),
                        campaign=cfg, config=config, baseline=baseline,
                        matcher=matcher)
