"""Extensions beyond the paper's evaluated scope (its stated future work)."""

from repro.core.extensions.multi_crash import (
    CrashPair,
    run_multi_crash_campaign,
    select_pairs,
)

__all__ = ["CrashPair", "run_multi_crash_campaign", "select_pairs"]
