"""One fresh process: set a workload up, run its timed region once, report.

The parent (:mod:`bench.runner`) starts one of these per timed run — a
``python -m repro campaign`` user pays cold caches every time, and
in-process repeats drift — and reads one JSON object from the last line
of its stdout.  ``mode`` is ``run`` (set-up + timed region), ``setup``
(set-up only, for more ``setup_s`` samples) or ``probes`` (the
single-layer probes of :mod:`bench.probes`).
"""

from __future__ import annotations

import json
from contextlib import nullcontext
import resource
import statistics
import time
from typing import Any, Dict, List

from bench import EXPECTED_PATH, OUT_DIR, workloads
from bench.spans import Recorder, Sampler, durations, self_times
from repro.api import (
    analyze_system,
    build_baseline,
    get_system,
    matcher_for_system,
    profile_system,
    run_campaign,
)
from repro.core.injection import campaign as campaign_module

#: span names of the traced round; each becomes ``self.<name>_s``
SPAN_NAMES = (
    "harness", "analysis", "profiler", "baseline", "campaign", "run_workload",
    "reclassify", "evaluate", "service_submit", "service_step",
    "service_wait", "service_result",
)

#: ``profile.share.<name>``: (name, module prefix), first match wins
SHARE_GROUPS = (
    ("cluster.state", "repro.cluster.state"),
    ("sim.loop", "repro.sim"),
    ("systems", "repro.systems"),
    ("cluster", "repro.cluster"),
    ("net", "repro.net"),
    ("mtlog", "repro.mtlog"),
    ("core.injection", "repro.core.injection"),
    ("core.analysis", "repro.core.analysis"),
    ("obs", "repro.obs"),
    ("service", "repro.service"),
)

SNAPSHOT_COUNTS = ("recording_runs", "resumed_points", "reclassified",
                   "aliased_points", "fallback_points")


def main(mode: str, workload: str, seed: int, trace: bool, small: bool) -> int:
    if mode == "probes":
        # imported here: the probes pull in the service and the analytics,
        # which no workload's set-up should pay for
        from bench import probes

        metrics, worlds = probes.run_all(small)
        print(json.dumps({"metrics": metrics, "worlds": worlds}))
        return 0
    work = workloads.WORKLOADS[workload](small)
    try:
        work.setup(seed)
        t_ready = time.monotonic()
        if mode == "setup":
            print(json.dumps({"t_ready": t_ready}))
            return 0
        print(json.dumps(
            _timed_region(work, workload, seed, trace, small, t_ready)))
    finally:
        work.close()
    return 0


def _timed_region(work: Any, workload: str, seed: int, trace: bool,
                  small: bool, t_ready: float) -> Dict[str, Any]:
    rec = Recorder(workload, enabled=trace)
    sampler = Sampler()
    # the only calls inside a replay injection that cross a layer
    # boundary: the simulated run itself (a set deadline marks the
    # extended re-run of a flagged hang) and the oracle
    rec.wrap(campaign_module, "run_workload",
             lambda args, kwargs: "run_workload" if kwargs.get("deadline") is None
             else "reclassify")
    rec.wrap(campaign_module, "evaluate_run", lambda args, kwargs: "evaluate")
    cpu0, wall0 = _cpu_seconds(), time.perf_counter()
    try:
        with sampler if trace else nullcontext(), rec.span("harness"):
            unit = work.run(rec)
    finally:
        rec.unwrap()
    wall = time.perf_counter() - wall0
    cpu1 = _cpu_seconds()
    expected = json.loads(EXPECTED_PATH.read_text())
    attempted, failures = workloads.check(unit, expected, small)
    out = {
        "t_ready": t_ready,
        "wall_s": wall,
        "cpu_s": cpu1 - cpu0,
        "peak_rss_mb": max(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) / 1024.0,
        "injections": unit.injections,
        "latencies": unit.latencies,
        "attempted": attempted,
        "failures": failures,
        "observed": unit.observed,
    }
    if trace:
        out["layer"] = _layer_metrics(rec, sampler, unit, wall)
        OUT_DIR.mkdir(exist_ok=True)
        (OUT_DIR / f"trace-{workload}.json").write_text(json.dumps({
            "workload": workload, "seed": seed, "wall_s": wall,
            "spans": rec.spans, "samples": dict(sampler.counts),
        }))
    return out


def _cpu_seconds() -> float:
    """User + system CPU of this process and of the children it has
    reaped so far (snapshot forks, daemon workers)."""
    return sum(usage.ru_utime + usage.ru_stime for usage in (
        resource.getrusage(resource.RUSAGE_SELF),
        resource.getrusage(resource.RUSAGE_CHILDREN)))


def _layer_metrics(rec: Recorder, sampler: Sampler, unit: workloads.Unit,
                   wall: float) -> Dict[str, float]:
    own, total = self_times(rec.spans), durations(rec.spans)
    m: Dict[str, float] = {
        "trace.wall_s": wall,
        "trace.spans": len(rec.spans),
        "trace.self_sum_frac": sum(own.values()) / wall,
    }
    for name in SPAN_NAMES:
        m[f"self.{name}_s"] = own.get(name, 0.0)

    injections = sum(s["injections"] for s in unit.summaries)
    sim_events = sum(s["sim_events"] for s in unit.summaries)
    m["campaign.wall_s"] = unit.campaign_wall
    m["campaign.sim_s"] = sum(s["sim_seconds"] for s in unit.summaries)
    m["campaign.sim_events"] = sim_events
    m["campaign.us_per_event"] = (
        unit.campaign_wall / sim_events * 1e6 if sim_events else 0.0)
    m["campaign.injections"] = injections
    m["campaign.fired"] = sum(s["fired"] for s in unit.summaries)
    m["campaign.flagged"] = sum(s["flagged"] for s in unit.summaries)
    m["campaign.s_per_injection"] = (
        statistics.fmean(unit.injection_walls) if unit.injection_walls else 0.0)
    m["campaign.slowest_injection_s"] = max(unit.injection_walls, default=0.0)
    # share of the in-process campaign wall spent re-running flagged
    # hangs under the extended deadline (snapshot mode reclassifies
    # inside its forks: see snapshot.reclassified)
    m["campaign.classify_share"] = (
        total.get("reclassify", 0.0) / total["campaign"]
        if total.get("campaign") else 0.0)

    for key in SNAPSHOT_COUNTS:
        m[f"snapshot.{key}"] = sum(s.get(key, 0) for s in unit.snapshot_stats)
    resumed = m["snapshot.resumed_points"]
    m["snapshot.s_per_resume"] = unit.campaign_wall / resumed if resumed else 0.0

    daemon = unit.daemon
    m["daemon.dispatch_latency_ms"] = daemon.get("dispatch_latency_s", 0.0) * 1e3
    m["daemon.worker_campaign_s"] = unit.campaign_wall if daemon else 0.0
    m["daemon.jobs_done"] = daemon.get("jobs_done", 0)
    m["daemon.requeues"] = daemon.get("requeues", 0)
    m["daemon.overhead_per_job_ms"] = (
        (wall - _in_process(daemon["systems"])) / len(daemon["systems"]) * 1e3
        if daemon else 0.0)

    m["profile.samples"] = sum(sampler.counts.values())
    for name, share in sampler.shares(SHARE_GROUPS).items():
        m[f"profile.share.{name}"] = share
    return m


def _in_process(systems: List[str]) -> float:
    """Wall of the pipelines the daemon's workers ran, run here instead.

    Each distinct system is timed once, cold like a freshly forked
    worker, and counted as often as it was submitted.
    """
    once: Dict[str, float] = {}
    for name in sorted(set(systems)):
        t0 = time.perf_counter()
        system = get_system(name)
        analysis = analyze_system(system)
        profile = profile_system(system, analysis)
        run_campaign(system, analysis, profile.dynamic_points,
                     baseline=build_baseline(system),
                     matcher=matcher_for_system(name))
        once[name] = time.perf_counter() - t0
    return sum(once[name] for name in systems)
