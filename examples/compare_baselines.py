#!/usr/bin/env python3
"""Section 4.2 in one script: CrashTuner vs random vs IO fault injection.

Runs the three approaches over the same system with the same oracles and
prints the per-run efficiency comparison the paper's Tables 7 and 9 make.

    python examples/compare_baselines.py [system] [random_runs]
"""

import sys

from repro.api import crashtuner, format_table, get_system
from repro.bugs import matcher_for_system
from repro.core.baselines import (
    counted_bugs,
    find_io_points,
    profile_io_points,
    run_io_injection,
    run_random_injection,
)


def main() -> None:
    name = sys.argv[1] if len(sys.argv) > 1 else "yarn"
    random_runs = int(sys.argv[2]) if len(sys.argv) > 2 else 40
    system = get_system(name)
    matcher = matcher_for_system(name)

    print(f"=== {system.name}: CrashTuner vs the Section 4.2 baselines ===\n")

    result = crashtuner(system)
    ct_bugs = set(result.detected_bugs())
    ct_runs = len(result.campaign.outcomes)

    random_result = run_random_injection(system, runs=random_runs,
                                         baseline=result.campaign.baseline,
                                         matcher=matcher)
    rnd_bugs = set(counted_bugs(random_result))

    io_points = profile_io_points(system, find_io_points(result.analysis))
    io_result = run_io_injection(system, io_points,
                                 baseline=result.campaign.baseline,
                                 matcher=matcher)
    io_bugs = set(io_result.detected_bugs())

    def rate(bugs, runs):
        return f"{len(bugs) / runs:.3f}" if runs else "-"

    rows = [
        ["CrashTuner", ct_runs, len(ct_bugs), rate(ct_bugs, ct_runs),
         " ".join(sorted(ct_bugs)) or "-"],
        ["Random crash", random_runs, len(rnd_bugs),
         rate(rnd_bugs, random_runs), " ".join(sorted(rnd_bugs)) or "-"],
        ["IO fault", len(io_result.outcomes), len(io_bugs),
         rate(io_bugs, len(io_result.outcomes)), " ".join(sorted(io_bugs)) or "-"],
    ]
    print(format_table(
        ["Approach", "Runs", "Distinct bugs", "Bugs/run", "Which"], rows,
        title="Per-run bug-finding efficiency (Tables 7 and 9 shape)",
    ))
    print("\nThe paper's conclusion holds when CrashTuner's bugs/run dominates "
          "both baselines and the baselines find only large-window subsets.")


if __name__ == "__main__":
    main()
