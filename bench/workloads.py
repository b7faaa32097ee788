"""The five workloads: fixed work, inputs generated from ``--seed``.

Every workload is one object with ``setup(seed)`` (outside the timed
region), ``run(rec)`` (the timed region, driven through the pipeline's
constituent public calls so the traced round can put one span around
each) and ``close()``.  ``run`` returns a :class:`Unit`: the operations
attempted, their latencies, and a summary of every simulated statistic
for the check against ``bench/expected.json``.

The simulator's own RNG seed stays 0: a different simulation seed is a
different experiment (yarn's campaign wall moves 10 -> 15 s and the
detected-bug set changes), which would make runs incomparable and the
pinned outputs meaningless.  The benchmark seed instead generates the
*order* of the inputs — which crash point is injected when, which system
runs first, which job is submitted when — so every seed does the same
work on the same points and must produce the same per-point outcomes.
"""

from __future__ import annotations

import hashlib
import json
import random
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from bench import OUT_DIR
from bench.spans import Recorder
from repro.api import (
    CampaignConfig,
    analyze_system,
    build_baseline,
    get_system,
    matcher_for_system,
    profile_system,
    run_campaign,
)


#: dynamic crash points injected on the 10x world (the first N the seed
#: profile finds)
POINTS_10X = 12
#: jobs burst-submitted to the daemon, round-robin over these systems
DAEMON_JOBS = 24
DAEMON_SYSTEMS = ("hdfs", "cassandra", "zookeeper")
#: ``--small`` sizes for the self-test: same code, a second or two
SMALL_POINTS = 3
SMALL_JOBS = 3
SMALL_WORLD = 3


@dataclass
class Unit:
    """What one pass through a workload's timed region produced."""

    #: expected.json key -> summary of that campaign's outcomes
    observed: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    #: one per completed operation that has a latency, in seconds: every
    #: injection of an in-process campaign, every job of the daemon
    latencies: List[float] = field(default_factory=list)
    injections: int = 0
    #: operations beyond injections (daemon jobs)
    jobs: int = 0
    #: failed operations, one message each (tool exceptions, jobs not done)
    failures: List[str] = field(default_factory=list)
    # -- read by the traced round only ---------------------------------
    #: one summary per campaign run (each daemon job is one)
    summaries: List[Dict[str, Any]] = field(default_factory=list)
    #: the campaigns' own ``wall_seconds``, summed
    campaign_wall: float = 0.0
    #: per-injection wall: completion gaps in process, the outcomes'
    #: ``wall_seconds`` for daemon jobs
    injection_walls: List[float] = field(default_factory=list)
    snapshot_stats: List[Dict[str, Any]] = field(default_factory=list)
    #: daemon-only measurements
    daemon: Dict[str, Any] = field(default_factory=dict)


def summarize(outcomes: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Order- and line-number-independent summary of ``to_dict`` outcomes.

    Everything here is a simulated statistic: a simulator speed-up must
    leave all of it identical, and replay and snapshot execution of the
    same points must agree on it.
    """
    rows = []
    bugs: Dict[str, int] = {}
    kinds: Dict[str, int] = {}
    for outcome in outcomes:
        diag = outcome["diagnosis"]
        rows.append([diag["fired"], diag["verdict_kinds"],
                     sorted(diag["matched_bugs"]), round(diag["duration"], 6),
                     diag["events_processed"]])
        for bug in diag["matched_bugs"]:
            bugs[bug] = bugs.get(bug, 0) + 1
        for kind in diag["verdict_kinds"]:
            kinds[kind] = kinds.get(kind, 0) + 1
    rows.sort(key=json.dumps)
    return {
        "injections": len(rows),
        "fired": sum(1 for row in rows if row[0]),
        "flagged": sum(1 for row in rows if row[1]),
        "bugs": dict(sorted(bugs.items())),
        "kinds": dict(sorted(kinds.items())),
        "sim_seconds": round(sum(row[3] for row in rows), 6),
        "sim_events": sum(row[4] for row in rows),
        "digest": hashlib.sha256(json.dumps(rows).encode()).hexdigest()[:16],
    }


def _campaign(rec: Recorder, unit: Unit, key: str, system: Any, analysis: Any,
              points: List[Any], cfg: Any) -> None:
    """Baseline + campaign over ``points``; one op per injection."""
    unit.injections += len(points)
    try:
        with rec.span("baseline"):
            baseline = build_baseline(system)
        last = [time.perf_counter()]

        def on_outcome(index: int, outcome: Any) -> None:
            now = time.perf_counter()
            unit.latencies.append(now - last[0])
            last[0] = now

        with rec.span("campaign"):
            result = run_campaign(
                system, analysis, points, campaign=cfg, baseline=baseline,
                matcher=matcher_for_system(system.name), on_outcome=on_outcome,
            )
    except Exception as exc:  # noqa: BLE001 - a tool exception fails its ops
        unit.failures.extend(
            f"{key}: injection {i}: {type(exc).__name__}: {exc}"
            for i in range(len(points)))
        return
    summary = summarize([o.to_dict() for o in result.outcomes])
    unit.observed[key] = summary
    unit.summaries.append(summary)
    unit.campaign_wall += result.wall_seconds
    unit.injection_walls = list(unit.latencies)
    if result.snapshot_stats is not None:
        unit.snapshot_stats.append(result.snapshot_stats)


class SeedPipelines:
    """``analyze -> profile -> baseline -> campaign`` on yarn and hbase.

    The calls ``crashtuner()`` makes, made one by one so each can carry a
    span; the seed orders the two systems and each system's points.
    """

    systems = ("yarn", "hbase")

    def __init__(self, execution: str, small: bool = False):
        self.execution = execution
        self.max_points = SMALL_POINTS if small else None

    def setup(self, seed: int) -> None:
        self.rng = random.Random(seed)
        self.order = [get_system(name) for name in self.systems]
        self.rng.shuffle(self.order)

    def run(self, rec: Recorder) -> Unit:
        unit = Unit()
        cfg = CampaignConfig(execution=self.execution)
        for system in self.order:
            with rec.span("analysis"):
                analysis = analyze_system(system)
            with rec.span("profiler"):
                profile = profile_system(system, analysis)
            points = list(profile.dynamic_points[:self.max_points])
            self.rng.shuffle(points)
            cut = f"-first{self.max_points}" if self.max_points else ""
            _campaign(rec, unit, f"{system.name}-1x{cut}", system, analysis,
                      points, cfg)
        return unit

    def close(self) -> None:
        pass


class Yarn10x:
    """Seed-profiled points injected into the 132-node 10x yarn world.

    Analysis and profiling run at seed scale in ``setup``; the timed
    region is the baseline and the campaign on the big world, with hang
    reclassification off.
    """

    def __init__(self, execution: str, small: bool = False):
        self.execution = execution
        self.n_points = SMALL_POINTS if small else POINTS_10X
        self.world_scale = SMALL_WORLD if small else 10

    def setup(self, seed: int) -> None:
        seed_world = get_system("yarn")
        self.analysis = analyze_system(seed_world)
        profile = profile_system(seed_world, self.analysis)
        self.points = list(profile.dynamic_points[:self.n_points])
        random.Random(seed).shuffle(self.points)
        self.system = get_system("yarn", world_scale=self.world_scale)

    def run(self, rec: Recorder) -> Unit:
        unit = Unit()
        cfg = CampaignConfig(classify_timeouts=False, execution=self.execution)
        _campaign(rec, unit, f"yarn-{self.world_scale}x-first{self.n_points}",
                  self.system, self.analysis, self.points, cfg)
        return unit

    def close(self) -> None:
        pass


class DaemonQueue:
    """A burst of small campaigns through an in-process daemon.

    ``setup`` starts the daemon on an empty service directory; the timed
    region spools every job, then steps the daemon until each job's
    ``result.json`` is visible.  One op per job and one per injection the
    jobs ran; latency is submit -> result visible.
    """

    def __init__(self, small: bool = False):
        self.n_jobs = SMALL_JOBS if small else DAEMON_JOBS
        self.root: Optional[str] = None
        self.daemon: Any = None

    def setup(self, seed: int) -> None:
        # resolved lazily by repro.api too: campaign workloads never pay
        # for importing the service
        from repro.api import CampaignDaemon, attach

        systems = [DAEMON_SYSTEMS[i % len(DAEMON_SYSTEMS)]
                   for i in range(self.n_jobs)]
        random.Random(seed).shuffle(systems)
        self.jobs = [(f"j{i:03d}-{system}", system)
                     for i, system in enumerate(systems)]
        OUT_DIR.mkdir(exist_ok=True)
        self.root = tempfile.mkdtemp(prefix="svc-", dir=OUT_DIR)
        self.client = attach(self.root)
        self.daemon = CampaignDaemon(self.root, workers=1, poll_interval=0.01)
        self.daemon.start()

    def run(self, rec: Recorder) -> Unit:
        unit = Unit(jobs=len(self.jobs))
        daemon, client = self.daemon, self.client
        submitted: Dict[str, float] = {}
        for job_id, system in self.jobs:
            submitted[job_id] = time.perf_counter()
            with rec.span("service_submit"):
                client.submit(system, CampaignConfig(), job_id=job_id)
        result_of = {job_id: client.layout.job_dir(job_id) / "result.json"
                     for job_id, _ in self.jobs}
        pending = dict(submitted)
        dispatched_at: Optional[float] = None
        while pending:
            with rec.span("service_step"):
                daemon.step()
            now = time.perf_counter()
            if dispatched_at is None and daemon.metrics.snapshot()[
                    "counters"].get("service.jobs_dispatched", 0):
                dispatched_at = now
            for job_id in list(pending):
                record = daemon.table.jobs.get(job_id)
                if result_of[job_id].exists():
                    unit.latencies.append(now - pending.pop(job_id))
                elif record is not None and record.state == "failed":
                    del pending[job_id]  # out of attempts: no result will come
            if pending:
                with rec.span("service_wait"):
                    time.sleep(daemon.poll_interval)
        with rec.span("service_step"):
            daemon.step()  # settles the last job into the WAL
        with rec.span("service_result"):
            results = {job_id: client.result(job_id) for job_id, _ in self.jobs}
        per_system: Dict[str, Dict[str, Any]] = {}
        for job_id, system in self.jobs:
            result = results[job_id] or {}
            if result.get("state") != "done":
                unit.failures.append(
                    f"{job_id}: state {result.get('state')!r}: {result.get('error')}")
                continue
            summary = summarize(result["outcomes"])
            unit.injections += summary["injections"]
            unit.summaries.append(summary)
            unit.campaign_wall += result["wall_seconds"]
            unit.injection_walls.extend(
                outcome["wall_seconds"] for outcome in result["outcomes"])
            # every job of one system must agree with the others, too
            if per_system.setdefault(system, summary) != summary:
                unit.failures.append(f"{job_id}: differs from an earlier {system} job")
        unit.observed = {f"{system}-1x": summary
                         for system, summary in sorted(per_system.items())}
        counters = daemon.metrics.snapshot()["counters"]
        unit.daemon = {
            "dispatch_latency_s": (dispatched_at or time.perf_counter())
            - min(submitted.values()),
            "jobs_done": counters.get("service.jobs_completed", 0),
            "requeues": counters.get("service.jobs_requeued", 0),
            "systems": [system for _, system in self.jobs],
        }
        return unit

    def close(self) -> None:
        if self.daemon is not None:
            self.daemon.close()
        if self.root is not None:
            shutil.rmtree(self.root, ignore_errors=True)


#: ``BENCHMARK.json`` workload name -> factory taking ``small``
WORKLOADS = {
    "seed-replay": lambda small: SeedPipelines("replay", small),
    "seed-snapshot": lambda small: SeedPipelines("snapshot", small),
    "yarn-10x-replay": lambda small: Yarn10x("replay", small),
    "yarn-10x-snapshot": lambda small: Yarn10x("snapshot", small),
    "daemon-queue": DaemonQueue,
}


def check(unit: Unit, expected: Dict[str, Any], small: bool) -> Tuple[int, List[str]]:
    """``(attempted, failure messages)`` for one unit.

    One operation is one injection (plus one per daemon job).  A campaign
    whose summary disagrees with ``expected.json`` fails all its
    injections: none of them can be trusted.  An oracle-flagged bug is a
    success.  ``--small`` campaigns over a prefix of the points have no
    pinned summary; they still require every point to fire.
    """
    failures = list(unit.failures)
    for key, summary in unit.observed.items():
        reasons = []
        if summary["fired"] != summary["injections"]:
            reasons.append(
                f"fired {summary['fired']} of {summary['injections']}")
        pinned = expected["campaigns"].get(key)
        if pinned is not None:
            reasons.extend(
                f"{name}: got {summary[name]!r}, pinned {pinned.get(name)!r}"
                for name in summary if summary[name] != pinned.get(name))
        elif not small:
            reasons.append("no pinned summary")
        if reasons:
            failures.extend(f"{key}: injection {i}: {'; '.join(reasons)}"
                            for i in range(summary["injections"]))
    return unit.injections + unit.jobs, failures
