"""Random crash injection (paper Section 4.2.1, Table 7).

Each test run injects one crash (or graceful shutdown) of one randomly
chosen cluster node at a uniformly random time within the profiled clean
runtime, then applies the same oracles as CrashTuner.  The runs are plan
entries (:class:`TimedFault`) of one campaign on the executor.

One scoring rule the paper applies implicitly: killing a non-HA singleton
master *is* expected to take the cluster down, so a run whose only symptom
follows trivially from crashing the critical master is not a bug.  Such
runs are :func:`discounted`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.core.injection.campaign import (
    BugMatcherFn,
    CampaignConfig,
    CampaignResult,
    InjectionOutcome,
    _coerce_campaign,
)
from repro.core.injection.control_center import ControlCenter
from repro.core.injection.executor import run_campaign
from repro.core.injection.oracles import Baseline, build_baseline
from repro.core.injection.trigger import DirectTrigger
from repro.sim import SimRandom
from repro.systems.base import SystemUnderTest


@dataclass(frozen=True)
class TimedFault:
    """One random run: ``action`` on ``host`` at simulated time ``at``,
    in a run of its own ``seed``."""

    seed: int
    at: float
    action: str  # "crash" | "shutdown"
    host: str
    #: the host runs a critical (non-HA singleton) node
    critical: bool
    scale: int = 1

    def key(self) -> Tuple:
        return ("random", self.seed, self.at, self.action, self.host)

    def describe(self) -> str:
        return f"{self.action} {self.host} at t={self.at!r} (seed {self.seed})"

    def arm(self, cluster: Any, analysis: Any, cfg: CampaignConfig,
            on_fired: Any = None) -> Tuple[None, DirectTrigger]:
        trigger = DirectTrigger(ControlCenter(cluster))
        cluster.loop.schedule(
            self.at, lambda: trigger.fire(self.action, self.host), kind="fault")
        return None, trigger


def discounted(outcome: InjectionOutcome) -> bool:
    """Table 7's rule: a flagged run whose only symptoms follow from
    killing a critical master (no uncommon exception, no timeout issue)."""
    verdict = outcome.verdict
    return outcome.dpoint.critical and verdict.flagged and not (
        verdict.uncommon_exceptions or verdict.timeout_issue)


def counted_bugs(result: CampaignResult) -> Dict[str, int]:
    """bug id -> number of undiscounted runs that triggered it (Table 7)."""
    out: Dict[str, int] = {}
    for outcome in result.outcomes:
        if not discounted(outcome):
            for bug in outcome.matched_bugs:
                out[bug] = out.get(bug, 0) + 1
    return out


def random_plan(system: SystemUnderTest, runs: int, seed: int,
                mean_duration: float,
                config: Optional[Dict[str, Any]] = None) -> List[TimedFault]:
    """``runs`` timed faults: per run a time, an action, then a host, all
    from one stream; run ``i`` has seed ``seed + i``.  The host list —
    every non-client host, which ones are critical — is read off one
    cluster built at ``seed``: a deployment does not vary with the seed."""
    rng = SimRandom(seed ^ 0x5EED).stream("random-injection")
    nodes = system.build(seed=seed, config=config).nodes.values()
    hosts = sorted({n.host for n in nodes if n.role != "client"})
    critical = {n.host for n in nodes if n.critical}
    plan = []
    for i in range(runs):
        at = rng.uniform(0.0, mean_duration)
        action = rng.choice(["crash", "shutdown"])
        host = rng.choice(hosts)
        plan.append(TimedFault(seed + i, at, action, host, host in critical))
    return plan


def run_random_injection(
    system: SystemUnderTest,
    runs: int = 100,
    campaign: Optional[CampaignConfig] = None,
    config: Optional[Dict[str, Any]] = None,
    baseline: Optional[Baseline] = None,
    matcher: Optional[BugMatcherFn] = None,
) -> CampaignResult:
    """Run the random fault-injection baseline for ``runs`` test runs.

    ``campaign`` sets the seed, workers, journal and execution as for
    :func:`~repro.core.injection.run_campaign`; a flagged hang is judged
    at its deadline (``classify_timeouts`` is off).  Table 7 folds the
    result with :func:`discounted` / :func:`counted_bugs`.
    """
    cfg = _coerce_campaign(campaign, "run_random_injection").replace(
        classify_timeouts=False)
    if baseline is None:
        baseline = build_baseline(system, config=config)
    plan = random_plan(system, runs, cfg.seed, baseline.mean_duration, config)
    return run_campaign(system, None, plan, campaign=cfg, config=config,
                        baseline=baseline, matcher=matcher)
