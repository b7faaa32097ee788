"""Multi-crash-event injection — the paper's Section 6 future work.

The paper scopes itself to bugs triggered by **one** crash event and
explicitly defers "deep bugs involving multiple crash events" (34 of the
116 database bugs were omitted for this reason).  This extension explores
that space with the same meta-info machinery: a test run arms an *ordered
pair* of dynamic crash points — the second trigger only arms after the
first fault has been injected — so recovery-of-recovery paths get
exercised.

Pair selection keeps the campaign quadratic-safe: by default only pairs
whose first point is a flagged-clean ("survivable") injection and whose
second point lives in a *different* enclosing method are tried, capped by
``max_pairs``.
"""

from __future__ import annotations

import time as _wallclock
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.core.analysis import AnalysisReport
from repro.core.injection.campaign import COOLDOWN, BugMatcherFn, _arm
from repro.core.injection.control_center import ControlCenter
from repro.core.injection.oracles import Baseline, OracleVerdict, build_baseline, evaluate_run
from repro.core.injection.trigger import Trigger
from repro.core.profiler import DynamicCrashPoint
from repro.systems.base import SystemUnderTest, run_workload


class _ChainedTrigger(Trigger):
    """A trigger that only arms once a predecessor has fired."""

    def __init__(self, dpoint: DynamicCrashPoint, center: ControlCenter,
                 predecessor: Trigger):
        super().__init__(dpoint, center)
        self.predecessor = predecessor

    def _hook(self, event) -> None:  # type: ignore[override]
        if not self.predecessor.fired:
            return
        super()._hook(event)


@dataclass
class MultiCrashOutcome:
    first: DynamicCrashPoint
    second: DynamicCrashPoint
    first_fired: bool
    second_fired: bool
    verdict: OracleVerdict
    matched_bugs: List[str] = field(default_factory=list)

    @property
    def flagged(self) -> bool:
        return self.verdict.flagged


@dataclass
class MultiCrashResult:
    system: str
    outcomes: List[MultiCrashOutcome]
    baseline: Baseline
    wall_seconds: float

    def flagged(self) -> List[MultiCrashOutcome]:
        return [o for o in self.outcomes if o.flagged]

    def detected_bugs(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for outcome in self.outcomes:
            for bug in outcome.matched_bugs:
                out[bug] = out.get(bug, 0) + 1
        return out


def select_pairs(
    points: List[DynamicCrashPoint],
    max_pairs: int,
) -> List[Tuple[DynamicCrashPoint, DynamicCrashPoint]]:
    """Ordered pairs across distinct enclosing methods, deterministic."""
    pairs: List[Tuple[DynamicCrashPoint, DynamicCrashPoint]] = []
    for first in points:
        for second in points:
            if first is second:
                continue
            if first.point.enclosing == second.point.enclosing:
                continue
            pairs.append((first, second))
            if len(pairs) >= max_pairs:
                return pairs
    return pairs


def run_multi_crash_campaign(
    system: SystemUnderTest,
    analysis: AnalysisReport,
    points: List[DynamicCrashPoint],
    seed: int = 0,
    config: Optional[Dict[str, Any]] = None,
    baseline: Optional[Baseline] = None,
    matcher: Optional[BugMatcherFn] = None,
    max_pairs: int = 40,
    wait: float = 1.0,
) -> MultiCrashResult:
    """Exercise ordered pairs of dynamic crash points, one run each."""
    wall0 = _wallclock.perf_counter()
    if baseline is None:
        baseline = build_baseline(system, config=config)
    outcomes: List[MultiCrashOutcome] = []
    for first, second in select_pairs(points, max_pairs):
        holder: Dict[str, Any] = {}

        def before_run(cluster, workload, _first=first, _second=second):
            _, center1 = _arm(cluster, analysis, wait)
            # a center executes one fault per run: the pair needs a second
            center2 = ControlCenter(cluster, center1.store, wait=wait)
            t1 = Trigger(_first, center1)
            t2 = _ChainedTrigger(_second, center2, predecessor=t1)
            t1.install()
            t2.install()
            holder["t1"], holder["t2"] = t1, t2

        try:
            report = run_workload(system, seed=seed, config=config,
                                  before_run=before_run, cooldown=COOLDOWN)
        finally:
            for key in ("t1", "t2"):
                if key in holder:
                    holder[key].uninstall()
        verdict = evaluate_run(report, baseline)
        matched = matcher(report, verdict) if (matcher and verdict.flagged) else []
        outcomes.append(MultiCrashOutcome(
            first=first, second=second,
            first_fired=holder["t1"].fired, second_fired=holder["t2"].fired,
            verdict=verdict, matched_bugs=matched,
        ))
    return MultiCrashResult(
        system=system.name,
        outcomes=outcomes,
        baseline=baseline,
        wall_seconds=_wallclock.perf_counter() - wall0,
    )
