"""Bug oracles (paper Section 3.2.2, end).

A test run is flagged when any of the paper's three conditions holds:

1. **job failure** — the workload completed but did not succeed;
2. **system hang** — the workload did not reach a terminal state within
   the deadline (default 4x one clean run, Section 4.1.3); a flagged
   hang's run can optionally be driven on until the system has outlived
   its own timeouts, to separate true hangs from the paper's "timeout
   issues" (tasks finish, but take ~10 minutes);
3. **uncommon exceptions** — error-level log signatures never observed in
   clean baseline runs.

Silent errors are out of scope, as in the paper.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.obs.context import get_obs
from repro.systems.base import RunReport, SystemUnderTest, run_workload, world_scope

Signature = Tuple[str, str, str, Optional[str]]


@dataclass
class Baseline:
    """What clean runs look like: log signatures + duration stats."""

    system: str
    signatures: Set[Signature]
    mean_duration: float
    runs: int


def build_baseline(
    system: SystemUnderTest,
    seeds: Optional[List[int]] = None,
    config: Optional[Dict[str, Any]] = None,
    scale: int = 1,
) -> Baseline:
    """Run the workload cleanly a few times and collect signatures."""
    seeds = seeds if seeds is not None else list(range(5))
    signatures: Set[Signature] = set()
    total = 0.0
    for seed in seeds:
        with world_scope():  # only world-free values leave it
            report = run_workload(system, seed=seed, config=config,
                                  scale=scale, cooldown=10.0)
            assert report.log is not None
            signatures.update(r.signature() for r in report.log.records
                              if r.is_error)
            total += report.duration
            del report
    return Baseline(
        system=system.name,
        signatures=signatures,
        mean_duration=total / max(1, len(seeds)),
        runs=len(seeds),
    )


@dataclass
class OracleVerdict:
    """The oracle decision for one test run."""

    job_failure: bool
    hang: bool
    timeout_issue: bool  # hang that completed once its run was driven on
    uncommon_exceptions: List[str] = field(default_factory=list)
    critical_aborts: List[str] = field(default_factory=list)
    #: log signatures of the uncommon exceptions, runtime values stripped
    #: ("component|level|template|exc"), sorted and deduplicated — the
    #: anomalous-log template set the failure-mode analytics featurizes
    uncommon_templates: List[str] = field(default_factory=list)

    @property
    def flagged(self) -> bool:
        return bool(
            self.job_failure
            or self.hang
            or self.timeout_issue
            or self.uncommon_exceptions
            or self.critical_aborts
        )

    def kinds(self) -> List[str]:
        out = []
        if self.job_failure:
            out.append("job-failure")
        if self.hang:
            out.append("hang")
        if self.timeout_issue:
            out.append("timeout")
        if self.uncommon_exceptions:
            out.append("uncommon-exception")
        if self.critical_aborts:
            out.append("cluster-down")
        return out

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "OracleVerdict":
        known = set(cls.__dataclass_fields__)
        return cls(**{k: v for k, v in data.items() if k in known})


def evaluate_run(report: RunReport, baseline: Baseline) -> OracleVerdict:
    """Apply the three oracles to one run as it stands (no extension here)."""
    uncommon: List[str] = []
    templates: Set[str] = set()
    if report.log is not None:
        for record in report.log.records:
            if record.is_error and record.signature() not in baseline.signatures:
                uncommon.append(str(record))
                templates.add("|".join(
                    part or "" for part in record.signature()))
    verdict = OracleVerdict(
        job_failure=report.job_failure,
        hang=report.hang,
        timeout_issue=False,
        uncommon_exceptions=uncommon,
        critical_aborts=list(report.critical_aborts),
        uncommon_templates=sorted(templates),
    )
    obs = get_obs()
    if obs.enabled:
        metrics = obs.metrics
        for kind in verdict.kinds():
            metrics.counter(f"oracle.{kind}").inc()
        metrics.counter("oracle.flagged" if verdict.flagged else "oracle.clean").inc()
    return verdict
