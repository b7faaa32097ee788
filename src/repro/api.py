"""The stable public API of the CrashTuner reproduction.

**Stability contract.** This module is the supported surface: names
listed in ``__all__`` here keep their signatures and semantics across
internal refactors, and removals go through one release of deprecation.
Import from here (or from :mod:`repro`, which re-exports the same names)
and your code survives reorganizations; everything else under
``repro.*`` is implementation detail and may move between releases,
with three documented carve-outs that are stable *as namespaces* for
research extensions: :mod:`repro.bugs` (the bug catalog and matchers),
:mod:`repro.core.baselines` (alternative oracle baselines), and
:mod:`repro.core.extensions` (beyond-the-paper experiments such as
multi-crash campaigns).  The :mod:`repro.obs` package's own ``__all__``
is likewise stable for trace tooling.

The supported surface:

* :func:`crashtuner` / :class:`CrashTunerResult` — the end-to-end
  pipeline over one system,
* :func:`analyze_system` / :func:`profile_system` / :func:`point_key` —
  phase 1 pieces: static analysis, dynamic crash-point profiling, and
  the static/dynamic point identity; :func:`prepare` derives all of
  phase 1 plus the baseline in one call, reusing a ``cache_dir`` entry
  when one matches,
* :func:`run_campaign` / :class:`CampaignResult` — just the
  fault-injection phase, over pre-computed dynamic crash points,
* :func:`outcome_digest` — the one definition of "same result": a hash
  of a campaign's outcomes, wall-clock stripped and order-independent
  (``campaign --json``'s ``digest``, ``result.json``'s ``fingerprint``),
* :class:`CampaignConfig` — the one frozen config object for both
  (oracle knobs, seed, ``workers`` for parallel campaigns,
  ``journal_path`` for checkpoint/resume, ``execution="snapshot"`` for
  snapshot-and-resume test runs), validated at construction,
* :class:`Observability` — opt-in tracing/metrics/diagnoses, passed as
  ``obs=``,
* :func:`analyze_trace` / :class:`AnalyticsReport` — post-hoc
  failure-mode analytics over an exported JSONL trace,
* the **campaign service** (``python -m repro daemon``):
  :func:`attach` returns a :class:`ServiceClient` on a service
  directory, :func:`submit` queues one campaign on it, :func:`drain`
  asks its daemon to finish up and exit, :func:`service_status` reports
  daemon liveness and job counts; :class:`CampaignDaemon` embeds the
  daemon in-process.  Jobs survive ``kill -9`` of the daemon or any
  worker: a restarted daemon reattaches or resumes from the journal,
* :func:`get_system` / :func:`all_systems` / :func:`run_workload` — the
  simulated systems under test (Table 4),
* :func:`build_baseline` / :class:`Baseline` and
  :func:`matcher_for_system` — the clean-run oracle baseline and the
  bug-attribution matchers ``run_campaign`` consumes,
* :func:`format_table` / :func:`format_kv` — the report renderers the
  CLIs use, for scripts that want matching output,
* :func:`fast_lane` — context manager forcing the log hot-path's
  template-identity fast lane on or off (off = the paper-faithful
  scored-regex matching; both lanes are report-identical, see DESIGN.md
  "Log hot path").

>>> from repro.api import CampaignConfig, crashtuner, get_system
>>> result = crashtuner(get_system("yarn"), campaign=CampaignConfig(workers=4))
>>> sorted(result.detected_bugs())  # doctest: +SKIP
['MR-3858', 'MR-7178', ...]
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, Optional, Union

# repro.core must initialize before repro.bugs: bugs.records reaches back
# into repro.core.injection.oracles, which is fine only once core's own
# import of repro.bugs (from pipeline) has already completed.
from repro.core.pipeline import CrashTunerResult, crashtuner, prepare
from repro.bugs import matcher_for_system
from repro.core.analysis import analyze_system, point_key
from repro.core.analysis.patterns import fast_lane
from repro.core.injection import (
    Baseline,
    CampaignConfig,
    CampaignResult,
    InjectionOutcome,
    build_baseline,
    outcome_digest,
    run_campaign,
)
from repro.core.profiler import profile_system
from repro.core.report import format_kv, format_table
from repro.obs import Observability
from repro.systems import all_systems, get_system, run_workload

if TYPE_CHECKING:  # pragma: no cover - typing only
    from pathlib import Path

    from repro.service import ServiceClient


#: names resolved lazily from repro.obs / repro.service — analytics must
#: not import eagerly (runpy double-import warning for `python -m
#: repro.obs.analytics`), and the service pulls in multiprocessing
#: machinery most API users never touch.
_LAZY = {
    "AnalyticsReport": "repro.obs",
    "analyze_trace": "repro.obs",
    "CampaignDaemon": "repro.service",
    "DaemonAlreadyRunning": "repro.service",
    "ServiceClient": "repro.service",
    "ServiceUnavailable": "repro.service",
    "service_status": "repro.service",
}


def __getattr__(name: str):
    module_name = _LAZY.get(name)
    if module_name is not None:
        import importlib

        return getattr(importlib.import_module(module_name), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# ----------------------------------------------------------------------
# campaign-service front door (thin wrappers over repro.service)
# ----------------------------------------------------------------------
def attach(service_dir: Union[str, "Path"]) -> "ServiceClient":
    """A :class:`ServiceClient` on ``service_dir`` (created if missing).

    Works whether or not a daemon is currently alive there: submissions
    spool for the next daemon, status reports a dead daemon as dead.
    """
    from repro.service import ServiceClient

    return ServiceClient(service_dir)


def submit(
    service_dir: Union[str, "Path"],
    system: str,
    campaign: Optional[CampaignConfig] = None,
    config: Optional[Dict[str, Any]] = None,
    trace: bool = False,
    job_id: Optional[str] = None,
) -> str:
    """Queue one campaign on a service directory; returns the job id."""
    return attach(service_dir).submit(system, campaign, config=config,
                                      trace=trace, job_id=job_id)


def drain(service_dir: Union[str, "Path"]) -> None:
    """Ask the service's daemon to finish all queued work, then exit."""
    attach(service_dir).drain()


__all__ = [
    "AnalyticsReport",
    "Baseline",
    "CampaignConfig",
    "CampaignDaemon",
    "CampaignResult",
    "CrashTunerResult",
    "DaemonAlreadyRunning",
    "InjectionOutcome",
    "Observability",
    "ServiceClient",
    "ServiceUnavailable",
    "all_systems",
    "analyze_system",
    "analyze_trace",
    "attach",
    "build_baseline",
    "crashtuner",
    "drain",
    "fast_lane",
    "format_kv",
    "format_table",
    "get_system",
    "matcher_for_system",
    "outcome_digest",
    "point_key",
    "prepare",
    "profile_system",
    "run_campaign",
    "run_workload",
    "service_status",
    "submit",
]
