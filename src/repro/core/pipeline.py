"""The end-to-end CrashTuner pipeline (paper Figure 4).

:func:`crashtuner` runs both phases for one system — analysis (logs +
static crash points), profiling (dynamic crash points), and the
fault-injection campaign — and returns one :class:`CrashTunerResult`
carrying everything the evaluation tables read: counts (Table 10), pruning
stats (Table 12), times (Table 11), flagged outcomes and attributed bugs
(Table 5).

The campaign phase is configured by one frozen
:class:`~repro.core.injection.CampaignConfig` (workers, journal, seed, ...).
"""

from __future__ import annotations

import hashlib
import pickle
import time as _wallclock
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Optional, Tuple, Union

from repro.bugs import matcher_for_system
from repro.core.analysis import AnalysisReport, analyze_system
from repro.core.injection import Baseline, CampaignConfig, CampaignResult
from repro.core.injection import build_baseline, run_campaign
from repro.core.injection.campaign import _coerce_campaign
from repro.core.injection.executor import _canonical_config
from repro.core.profiler import ProfileResult, profile_system
from repro.durable import atomic_write
from repro.obs import NULL_OBS, Observability, get_obs
from repro.systems.base import SystemUnderTest


@dataclass
class CrashTunerResult:
    """Everything one CrashTuner run over one system produced."""

    system: str
    analysis: AnalysisReport
    profile: ProfileResult
    campaign: Optional[CampaignResult]
    wall_seconds: float
    #: metrics snapshot of the whole run's observability context, if enabled
    metrics: Optional[Dict[str, Any]] = None

    # ------------------------------------------------------------------
    # table views
    # ------------------------------------------------------------------
    def table10_row(self) -> Dict[str, int]:
        totals = self.analysis.totals()
        totals["dynamic_crash_points"] = len(self.profile.dynamic_points)
        return totals

    def table11_row(self) -> Dict[str, float]:
        """Analysis / profile / test times.

        Both wall-clock and simulated times are reported: the paper's
        hours are dominated by real cluster runs, whose in-simulation
        equivalent is the summed simulated duration of the test runs.
        ``workers`` and ``test_speedup`` report how the test phase was
        parallelized — speedup is the summed wall of this process's runs
        over the campaign's wall time, i.e. the realized parallelism.
        ``execution`` is the mode the test phase actually ran under
        (``replay`` re-runs every prefix and, unobserved, each distinct
        suffix once; ``snapshot`` resumes each injection from a fork at
        its fire instant).
        """
        row = {
            "analysis_mode": "engine",
            "analysis_wall_s": sum(self.analysis.timings.values()),
            "profile_wall_s": self.profile.wall_seconds,
            "test_wall_s": self.campaign.wall_seconds if self.campaign else 0.0,
            "test_sim_s": self.campaign.sim_seconds if self.campaign else 0.0,
            "workers": self.campaign.workers if self.campaign else 1,
            "test_speedup": self.campaign.speedup if self.campaign else 0.0,
            "execution": self.campaign.execution if self.campaign else "replay",
            "point_order": self.campaign.point_order if self.campaign else "point",
        }
        row["total_wall_s"] = (
            row["analysis_wall_s"] + row["profile_wall_s"] + row["test_wall_s"]
        )
        if self.metrics is not None:
            counters = self.metrics.get("counters", {})
            row["sim_events"] = counters.get("sim.events_processed", 0)
            row["rpcs_sent"] = counters.get("net.rpcs_sent", 0)
        return row

    def table12_row(self) -> Dict[str, int]:
        crash = self.analysis.crash
        return {
            "constructor": crash.pruned_constructor,
            "unused": crash.pruned_unused,
            "sanity_check": crash.pruned_sanity,
        }

    def detected_bugs(self) -> Dict[str, int]:
        """bug id -> number of dynamic crash points exposing it."""
        if self.campaign is None:
            return {}
        return {k: len(v) for k, v in self.campaign.detected_bugs().items()}


def source_digest() -> str:
    """sha256 over every ``repro`` source file (relative path + bytes)."""
    root = Path(__file__).parents[1]
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def setup_key(system: SystemUnderTest, seed: int,
              config: Optional[Dict[str, Any]]) -> str:
    """``<code>-<inputs>``: the source-tree digest first, so entries of
    another code version are sweepable by name, then a digest of
    everything else the triple is a function of."""
    inputs = repr((system.name, system.world_scale, sorted(vars(system).items()),
                   _canonical_config(config), seed))
    return (f"{source_digest()[:16]}-"
            f"{hashlib.sha256(inputs.encode()).hexdigest()[:32]}")


def prepare(
    system: SystemUnderTest,
    seed: int = 0,
    config: Optional[Dict[str, Any]] = None,
    cache_dir: Optional[Union[str, Path]] = None,
    info: Optional[Dict[str, Any]] = None,
) -> Tuple[AnalysisReport, ProfileResult, Baseline]:
    """Phase 1 (Figure 4, top) plus the clean-run baseline, derived once.

    With a ``cache_dir`` the triple is loaded from
    ``<cache_dir>/<setup_key>.pkl`` — one pickle, so the ``AccessPoint``
    objects the three share stay shared — or built and published there.
    The cache only ever saves time: an unreadable or foreign entry, or a
    failed publish, degrades to building in place (DESIGN.md "Setup
    artefact").  ``info``, when given, receives ``cache`` ("hit" |
    "miss" | "off"), ``key`` and ``seconds``.
    """
    wall0 = _wallclock.perf_counter()
    key, setup, entry = "", None, None
    if cache_dir is not None:
        key = setup_key(system, seed, config)
        entry = Path(cache_dir) / f"{key}.pkl"
        try:
            stamp, *loaded = pickle.loads(entry.read_bytes())
            if stamp == key:
                setup = tuple(loaded)
        except Exception:  # noqa: BLE001 - any unreadable entry is a miss
            pass
    cache = "hit" if setup else "miss" if entry else "off"
    if setup is None:
        analysis = analyze_system(system, seed=seed, config=config)
        profile = profile_system(system, analysis, seed=seed, config=config)
        with get_obs().tracer.span("baseline", system=system.name):
            baseline = build_baseline(system, config=config)
        setup = (analysis, profile, baseline)
        if entry is not None:
            _publish(entry, (key,) + setup)
    if info is not None:
        info.update(cache=cache, key=key,
                    seconds=_wallclock.perf_counter() - wall0)
    return setup


def _publish(entry: Path, payload: Tuple) -> None:
    """Atomically install one cache entry; a failure leaves none."""
    try:
        entry.parent.mkdir(parents=True, exist_ok=True)
        atomic_write(entry, pickle.dumps(payload, pickle.HIGHEST_PROTOCOL))
    except Exception:  # noqa: BLE001 - full disk, read-only dir, ...
        pass


def crashtuner(
    system: SystemUnderTest,
    campaign: Optional[CampaignConfig] = None,
    config: Optional[Dict[str, Any]] = None,
    baseline: Optional[Baseline] = None,
    run_injection: bool = True,
    obs: Optional[Observability] = None,
) -> CrashTunerResult:
    """Run CrashTuner end-to-end over one system.

    Args:
        campaign: the :class:`~repro.core.injection.CampaignConfig` for
            the injection phase (also supplies the pipeline's RNG seed);
            ``CampaignConfig(workers=N)`` parallelizes the test runs.
        run_injection: phase 2 can be skipped for analysis-only callers.
        obs: observability context installed around all three phases;
            the result carries its metrics snapshot and the campaign
            collects one diagnosis per tested point into ``obs.diagnoses``.
    """
    cfg = _coerce_campaign(campaign, "crashtuner")
    wall0 = _wallclock.perf_counter()
    active = obs if obs is not None else NULL_OBS
    with active:
        analysis, profile, built = prepare(system, cfg.seed, config)
        campaign_result: Optional[CampaignResult] = None
        if run_injection:
            campaign_result = run_campaign(
                system, analysis, profile.dynamic_points,
                campaign=cfg, config=config, baseline=baseline or built,
                matcher=matcher_for_system(system.name),
            )
    return CrashTunerResult(
        system=system.name,
        analysis=analysis,
        profile=profile,
        campaign=campaign_result,
        wall_seconds=_wallclock.perf_counter() - wall0,
        metrics=active.metrics.snapshot() if active.enabled else None,
    )
