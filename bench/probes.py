"""Single-layer probes for the traced round.

Each probe times calls into one layer's public functions on a fixed
input, in a fresh process of its own so the numbers do not depend on
which workload's traced run they ride along with.  Rates run for a
minimum time and short walls are medians of a few repetitions; counts
(events, records, nodes, points) must repeat exactly and are checked
against ``bench/expected.json``.

The per-layer -> end-to-end predictions (which workload's ``wall_s``
each of these should move) are in ``bench/README.md``.
"""

from __future__ import annotations

import os
import shutil
import statistics
import tempfile
import time
from typing import Any, Callable, Dict, List, Tuple

from bench import OUT_DIR
from repro.api import (
    CampaignConfig,
    CampaignDaemon,
    Observability,
    analyze_system,
    build_baseline,
    fast_lane,
    get_system,
    matcher_for_system,
    profile_system,
    run_campaign,
    run_workload,
)
from repro.core.analysis import AnalysisEngine
from repro.core.injection.online_log import OnlineLogAgent, OnlineMetaStore
from repro.core.injection.oracles import evaluate_run
from repro.obs import analyze_trace, read_trace_jsonl, write_trace_jsonl
from repro.service.jobs import QUEUED, JobSpec, JobTable
from repro.service.wal import WriteAheadLog
from repro.sim.loop import SimLoop

PAPER_SYSTEMS = ("yarn", "hdfs", "hbase", "zookeeper", "cassandra")

#: plain ``run_workload`` worlds: (metric infix, system, world_scale, reps)
WORLDS = (
    ("yarn-1x", "yarn", 1, 7),
    ("yarn-10x", "yarn", 10, 3),
    ("yarn-30x", "yarn", 30, 1),
    ("hbase-1x", "hbase", 1, 7),
    ("hbase-10x", "hbase", 10, 3),
)

FULL = {"sim_events": 30_000, "world_cap": 30, "min_seconds": 0.2,
        "campaign_points": None, "queued_jobs": 150}
#: ``--small``: the same probes under the same names at toy sizes
SMALL = {"sim_events": 3_000, "world_cap": 2, "min_seconds": 0.02,
         "campaign_points": 3, "queued_jobs": 10}


def _timed(fn: Callable[[], Any]) -> Tuple[float, Any]:
    t0 = time.perf_counter()
    out = fn()
    return time.perf_counter() - t0, out


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise RuntimeError(f"probe: {message}")


def _rate(fn: Callable[[], int], min_seconds: float) -> float:
    """Items per second of ``fn`` (which returns its item count), looped
    for at least ``min_seconds`` after one warm-up call."""
    fn()
    items, t0 = 0, time.perf_counter()
    while (elapsed := time.perf_counter() - t0) < min_seconds:
        items += fn()
    return items / elapsed


def run_all(small: bool = False) -> Tuple[Dict[str, float], Dict[str, Dict[str, int]]]:
    """``(metrics, worlds)``: every probe metric by name, and the counts
    of each plain world run for the check against the pinned ones."""
    size = SMALL if small else FULL
    metrics: Dict[str, float] = {}
    OUT_DIR.mkdir(exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="probe-", dir=OUT_DIR)
    try:
        reports = _analysis(metrics)
        profiles = _profiler(metrics, reports)
        _sim(metrics, size)
        worlds, kept = _worlds(metrics, size)
        _bus(metrics, size, reports["yarn"])
        _log(metrics, size, reports["yarn"], kept)
        _store(metrics, size, reports["yarn"])
        _oracle(metrics, size, kept)
        _campaign_costs(metrics, size, tmp, reports["hbase"], profiles["hbase"])
        _wal(metrics, size, tmp)
        _cold_start(metrics, size, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return metrics, worlds


# ----------------------------------------------------------------------
# repro.core.analysis / repro.core.profiler
# ----------------------------------------------------------------------
def _analysis(metrics: Dict[str, float]) -> Dict[str, Any]:
    engines = {name: AnalysisEngine() for name in PAPER_SYSTEMS}
    cold, warm, reports = {}, {}, {}
    for name in PAPER_SYSTEMS:
        cold[name], reports[name] = _timed(
            lambda: analyze_system(get_system(name), engine=engines[name]))
    for name in PAPER_SYSTEMS:  # same engines: every extraction is cached
        warm[name], _ = _timed(
            lambda: analyze_system(get_system(name), engine=engines[name]))
    metrics["analysis.cold_s"] = sum(cold.values())
    metrics["analysis.warm_s"] = sum(warm.values())
    metrics["analysis.yarn.cold_s"] = cold["yarn"]
    metrics["analysis.static_points"] = sum(
        len(report.crash.crash_points) for report in reports.values())
    return reports


def _profiler(metrics: Dict[str, float], reports: Dict[str, Any]) -> Dict[str, Any]:
    wall, profiles = _timed(lambda: {
        name: profile_system(get_system(name), reports[name])
        for name in PAPER_SYSTEMS})
    metrics["profiler.wall_s"] = wall
    metrics["profiler.iterations"] = sum(p.iterations for p in profiles.values())
    metrics["profiler.dynamic_points"] = sum(
        len(p.dynamic_points) for p in profiles.values())
    return profiles


# ----------------------------------------------------------------------
# repro.sim.loop — one kernel, used two ways
# ----------------------------------------------------------------------
def _sim(metrics: Dict[str, float], size: Dict[str, Any]) -> None:
    n = size["sim_events"]

    def bare() -> float:
        loop = SimLoop()
        for i in range(n):
            loop.schedule(i * 1e-6, lambda: None,
                          kind="timer" if i % 2 else "message")
        wall, _ = _timed(loop.run)
        _require(loop.events_processed == n, "bare loop lost events")
        return n / wall

    def cancel() -> float:
        loop = SimLoop()
        owners = [f"node{i}" for i in range(100)]
        for i in range(n):
            loop.schedule(i * 1e-6, lambda: None, owner=owners[i % 100])

        def teardown() -> None:
            for owner in owners:
                loop.cancel_owned_by(owner)
            loop.run()

        wall, _ = _timed(teardown)
        _require(loop.events_processed == 0 and loop.pending() == 0,
                 "cancelled events fired or linger")
        return n / wall

    metrics["sim.bare_events_per_s"] = statistics.median(bare() for _ in range(5))
    metrics["sim.cancel_events_per_s"] = statistics.median(cancel() for _ in range(5))


# ----------------------------------------------------------------------
# repro.systems + repro.cluster — plain worlds at 1x / 10x / 30x
# ----------------------------------------------------------------------
def _worlds(metrics: Dict[str, float], size: Dict[str, Any]):
    worlds: Dict[str, Dict[str, int]] = {}
    kept = None
    for label, name, scale, reps in WORLDS:
        system = get_system(name, world_scale=min(scale, size["world_cap"]))
        walls: List[float] = []
        for _ in range(reps):
            wall, report = _timed(lambda: run_workload(system, seed=0))
            _require(report.completed and report.succeeded,
                     f"{label}: clean run failed: {report.failures}")
            counts = {
                "events": report.cluster.loop.events_processed,
                "records": len(report.cluster.log_collector.records),
                "nodes": len(report.cluster.nodes),
            }
            _require(worlds.setdefault(label, counts) == counts,
                     f"{label}: counts changed between two runs of one seed")
            walls.append(wall)
        wall = statistics.median(walls)
        metrics[f"world.{label}.run_s"] = wall
        metrics[f"world.{label}.us_per_event"] = wall / counts["events"] * 1e6
        for key, value in counts.items():
            metrics[f"world.{label}.{key}"] = value
        if label == "yarn-10x":
            kept = (system, report, wall)
    return worlds, kept


# ----------------------------------------------------------------------
# repro.cluster.state — the access bus and its frame walk
# ----------------------------------------------------------------------
def _bus(metrics: Dict[str, float], size: Dict[str, Any], analysis: Any) -> None:
    """One profiling iteration (every tracked access emits to a hook and
    walks the caller's frames) over the plain run of the same world."""
    for label, scale, reps in (("yarn-1x", 1, 7), ("yarn-10x", 10, 3)):
        system = get_system("yarn", world_scale=min(scale, size["world_cap"]))
        plain = statistics.median(
            _timed(lambda: run_workload(system, seed=0))[0] for _ in range(reps))
        hooked = statistics.median(
            _timed(lambda: profile_system(system, analysis, max_iterations=1))[0]
            for _ in range(reps))
        metrics[f"bus.instrumented_run_x.{label}"] = hooked / plain


# ----------------------------------------------------------------------
# repro.mtlog + core.analysis.patterns — matching one 10x run's records
# ----------------------------------------------------------------------
def _log(metrics: Dict[str, float], size: Dict[str, Any], analysis: Any,
         kept: Any) -> None:
    records = kept[1].cluster.log_collector.records
    index = analysis.index

    def match_all() -> int:
        for record in records:
            index.match_record(record)
        return len(records)

    with fast_lane(True):
        metrics["log.match_fast_rec_per_s"] = _rate(match_all, size["min_seconds"])
    with fast_lane(False):
        metrics["log.match_slow_rec_per_s"] = _rate(match_all, size["min_seconds"])


# ----------------------------------------------------------------------
# repro.core.injection.online_log — the store fed one 10x run's values
# ----------------------------------------------------------------------
def _store(metrics: Dict[str, float], size: Dict[str, Any], analysis: Any) -> None:
    batches: List[List[str]] = []

    class Recording(OnlineMetaStore):
        def process(self, values):
            values = list(values)
            batches.append(values)
            super().process(values)

    def before_run(cluster, workload) -> None:
        agent = OnlineLogAgent(analysis.index, analysis.log_result.meta_slots,
                               Recording(analysis.hosts))
        agent.attach(cluster.log_collector)

    system = get_system("yarn", world_scale=min(10, size["world_cap"]))
    run_workload(system, seed=0, before_run=before_run)
    store = OnlineMetaStore(analysis.hosts)

    def feed() -> int:
        nonlocal store
        store = OnlineMetaStore(analysis.hosts)
        for batch in batches:
            store.process(batch)
        return len(batches)

    metrics["store.process_per_s"] = _rate(feed, size["min_seconds"])
    values = sorted({value for batch in batches for value in batch})

    def probe() -> int:
        for value in values:
            store.query(value)
        return len(values)

    metrics["store.query_per_s"] = _rate(probe, size["min_seconds"])
    metrics["store.size"] = store.size()


# ----------------------------------------------------------------------
# repro.core.injection.oracles
# ----------------------------------------------------------------------
def _oracle(metrics: Dict[str, float], size: Dict[str, Any], kept: Any) -> None:
    system, report, _ = kept
    metrics["oracle.baseline_s"], baseline = _timed(lambda: build_baseline(system))

    def evaluate() -> int:
        evaluate_run(report, baseline)
        return 1

    metrics["oracle.evaluate_per_s"] = _rate(evaluate, size["min_seconds"])


# ----------------------------------------------------------------------
# executor journal and repro.obs — what each adds to one seed campaign
# ----------------------------------------------------------------------
def _campaign_costs(metrics: Dict[str, float], size: Dict[str, Any], tmp: str,
                    analysis: Any, profile: Any) -> None:
    system = get_system("hbase")
    baseline = build_baseline(system)
    points = profile.dynamic_points[:size["campaign_points"]]

    def campaign(obs=None, **knobs) -> float:
        wall, _ = _timed(lambda: run_campaign(
            system, analysis, points, campaign=CampaignConfig(**knobs),
            baseline=baseline, matcher=matcher_for_system("hbase"), obs=obs))
        return wall

    journal = f"{tmp}/journal.jsonl"
    base = campaign()
    # one pair: the journal flushes without fsync, so its cost (~1%) sits
    # below what any affordable number of pairs resolves on a shared host
    metrics["journal.overhead_frac"] = campaign(journal_path=journal) / base - 1.0
    # the read side: every point restored from the journal, none re-run
    metrics["journal.resume_s"] = campaign(journal_path=journal)
    metrics["journal.bytes"] = os.path.getsize(journal)

    obs = Observability()
    metrics["obs.overhead_frac"] = campaign(obs=obs) / base - 1.0
    # snapshot mode ships every fork's spans back to the parent
    metrics["obs.snapshot_overhead_frac"] = (
        campaign(obs=Observability(), execution="snapshot")
        / campaign(execution="snapshot") - 1.0)
    metrics["obs.spans"] = len(obs.tracer.spans)
    trace = write_trace_jsonl(f"{tmp}/trace.jsonl", obs=obs)
    metrics["obs.analyze_trace_s"], _ = _timed(
        lambda: analyze_trace(read_trace_jsonl(trace)))


# ----------------------------------------------------------------------
# repro.service.wal / repro.service.daemon
# ----------------------------------------------------------------------
def _wal(metrics: Dict[str, float], size: Dict[str, Any], tmp: str) -> None:
    rec = JobTable.transition_record("bench-job", QUEUED, reason="bench")
    for label, fsync in (("fsync", True), ("nofsync", False)):
        with WriteAheadLog(f"{tmp}/wal-{label}.jsonl", fsync=fsync) as wal:
            written = 0

            def append() -> int:
                nonlocal written
                wal.append(rec)
                written += 1
                return 1

            metrics[f"wal.{label}_frames_per_s"] = _rate(append, size["min_seconds"])
    wall, frames = _timed(WriteAheadLog(f"{tmp}/wal-nofsync.jsonl").replay)
    _require(len(frames) == written, "WAL replay lost frames")
    metrics["wal.replay_frames_per_s"] = len(frames) / wall


def _cold_start(metrics: Dict[str, float], size: Dict[str, Any], tmp: str) -> None:
    """``daemon.start()`` over a WAL of queued jobs: replay, table
    rebuild, scheduler refill — nothing dispatched."""
    n_jobs, walls = size["queued_jobs"], []
    for rep in range(3):
        daemon = CampaignDaemon(f"{tmp}/recover-{rep}", workers=1)  # lays the directory out
        with WriteAheadLog(daemon.layout.wal, fsync=False) as wal:
            for i in range(n_jobs):
                wal.append(JobTable.submit_record(
                    JobSpec(job_id=f"cassandra-{i:05d}", system="cassandra")))
        wall, _ = _timed(daemon.start)
        pending = daemon.scheduler.pending()
        daemon.close()
        _require(pending == n_jobs, f"cold start queued {pending} of {n_jobs} jobs")
        walls.append(wall)
    metrics["daemon.cold_start_ms"] = statistics.median(walls) * 1e3
