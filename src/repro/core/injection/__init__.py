"""CrashTuner phase 2: fault-injection testing (Figure 4, bottom half)."""

from repro.core.injection.campaign import (
    CampaignConfig,
    CampaignResult,
    InjectionOutcome,
    outcome_digest,
    run_one_injection,
)
from repro.core.injection.control_center import ControlCenter, InjectionRecord
from repro.core.injection.executor import (
    CampaignJournal,
    JournalMismatch,
    run_campaign,
)
from repro.core.injection.online_log import OnlineLogAgent, OnlineMetaStore
from repro.core.injection.oracles import (
    Baseline,
    OracleVerdict,
    build_baseline,
    evaluate_run,
)
from repro.core.injection.trigger import Trigger

__all__ = [
    "Baseline",
    "CampaignConfig",
    "CampaignJournal",
    "CampaignResult",
    "ControlCenter",
    "JournalMismatch",
    "InjectionOutcome",
    "InjectionRecord",
    "OnlineLogAgent",
    "OnlineMetaStore",
    "OracleVerdict",
    "Trigger",
    "build_baseline",
    "evaluate_run",
    "outcome_digest",
    "run_campaign",
    "run_one_injection",
]
