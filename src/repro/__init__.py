"""CrashTuner (SOSP 2019) reproduction.

Detecting crash-recovery bugs in cloud systems via meta-info analysis, on
a fully simulated cloud-system substrate.  The supported public API lives
in :mod:`repro.api` and is re-exported here:

* :func:`repro.crashtuner` — run the tool end-to-end over a system,
* :class:`repro.CampaignConfig` — campaign knobs, parallel ``workers``,
  and the checkpoint ``journal_path``,
* :func:`repro.get_system` / :func:`repro.all_systems` — the systems under
  test (Table 4),
* :func:`repro.run_workload` — drive one clean or fault-injected run,
* :class:`repro.Observability` — opt-in tracing/metrics/diagnoses,
* :func:`repro.submit` / :func:`repro.attach` — the campaign service
  (``python -m repro daemon``): durable queue, SIGKILL-safe recovery,
* :mod:`repro.bugs` — the bug catalog (Tables 1, 5, 6, 13).

Every other name in :data:`repro.api.__all__` resolves here too, lazily.

>>> from repro import CampaignConfig, crashtuner, get_system
>>> result = crashtuner(get_system("yarn"), campaign=CampaignConfig(workers=4))
>>> sorted(result.detected_bugs())  # doctest: +SKIP
['MR-3858', 'MR-7178', ...]
"""

from repro.api import (
    CampaignConfig,
    CampaignResult,
    CrashTunerResult,
    Observability,
    all_systems,
    crashtuner,
    fast_lane,
    get_system,
    run_campaign,
    run_workload,
)
from repro import api

__version__ = "1.24.0"


def __getattr__(name: str):
    # the rest of the supported surface (service front door, analytics,
    # phase-1 helpers) resolves lazily through the facade
    if name in api.__all__:
        return getattr(api, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "CampaignConfig",
    "CampaignResult",
    "CrashTunerResult",
    "Observability",
    "all_systems",
    "api",
    "crashtuner",
    "fast_lane",
    "get_system",
    "run_campaign",
    "run_workload",
    "__version__",
]
