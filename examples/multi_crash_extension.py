#!/usr/bin/env python3
"""The paper's future work, running today: multi-crash-event injection.

Section 6 defers "deep bugs involving multiple crash events" (34 of the
116 database bugs were out of scope for the paper).  The extension in
``repro.core.extensions`` chains two triggers — the second dynamic crash
point only arms after the first has fired — so recovery-of-recovery
paths get exercised with the same meta-info machinery.

    python examples/multi_crash_extension.py [system] [max_pairs]
"""

import sys

from repro.api import (
    analyze_system,
    build_baseline,
    format_table,
    get_system,
    profile_system,
)
from repro.bugs import matcher_for_system
from repro.core.extensions import run_multi_crash_campaign


def main() -> None:
    name = sys.argv[1] if len(sys.argv) > 1 else "hdfs"
    max_pairs = int(sys.argv[2]) if len(sys.argv) > 2 else 20
    system = get_system(name)
    print(f"=== Multi-crash injection on {system.name} (<= {max_pairs} pairs) ===\n")

    analysis = analyze_system(system)
    profile = profile_system(system, analysis)
    baseline = build_baseline(system)
    result = run_multi_crash_campaign(
        system, analysis, profile.dynamic_points,
        baseline=baseline, matcher=matcher_for_system(name), max_pairs=max_pairs,
    )

    rows = []
    for outcome in result.outcomes:
        pair = outcome.dpoint
        rows.append([
            pair.first.point.enclosing,
            pair.second.point.enclosing,
            "+".join(k for k, fired in
                     (("1st", outcome.fired), ("2nd", outcome.diagnosis.hits == 2))
                     if fired) or "-",
            ",".join(outcome.verdict.kinds()) or "-",
            ",".join(outcome.matched_bugs) or "-",
        ])
    print(format_table(
        ["First crash point", "Second crash point", "Fired", "Verdict", "Bugs"],
        rows, title=f"{len(result.outcomes)} pair runs, {len(result.flagged())} flagged",
    ))
    print(f"\nDistinct bugs across pair runs: {sorted(result.detected_bugs()) or 'none'}")


if __name__ == "__main__":
    main()
