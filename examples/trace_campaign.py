#!/usr/bin/env python3
"""Run a CrashTuner campaign with full observability and inspect the trace.

Runs the fault-injection campaign with tracing + metrics enabled, writes
the run's telemetry as a JSONL trace (spans over simulated time, a
metrics snapshot, and one diagnosis record per dynamic crash point), and
prints the summary that ``python -m repro report`` produces from the
file.  With ``--analytics`` it also runs the failure-mode analytics pass
(``python -m repro analytics``) over the trace and prints the mode
and canonical-detection tables; ``--rank`` adds the anomaly ranking.
With ``--diff-fallback`` it runs the campaign a second time with the
random-node fallback enabled (the A1 ablation's knob) and prints the
diff between the two traces.

Usage::

    python examples/trace_campaign.py [system] [--points N] [--workers N]
        [--order novelty] [--journal campaign.jsonl] [--out trace.jsonl]
        [--analytics] [--rank] [--diff-fallback]
"""

import argparse
import tempfile
from pathlib import Path

from repro.api import (
    CampaignConfig,
    analyze_system,
    build_baseline,
    get_system,
    matcher_for_system,
    profile_system,
    run_campaign,
)
from repro.obs import Observability, Tracer, read_trace_jsonl, write_trace_jsonl
from repro.obs.analytics import analyze_trace, format_dedup, format_modes, format_rank
from repro.obs.report import diff, summarize

EPILOG = """\
campaign knobs:
  --workers N fans the campaign over a process pool (the merged trace is
  identical to a sequential run); --journal PATH checkpoints each outcome
  so a killed campaign resumes where it left off; --order novelty
  schedules dissimilar crash points first, so a --points-capped campaign
  reaches its first detection sooner.
"""


def traced_campaign(system, analysis, profile, baseline, points, fallback,
                    workers=1, journal=None, order="point"):
    obs = Observability(tracer=Tracer(max_spans=20_000))
    cfg = CampaignConfig(random_fallback=fallback, max_points=points,
                         workers=workers, journal_path=journal,
                         point_order=order)
    result = run_campaign(
        system, analysis, profile.dynamic_points, campaign=cfg,
        baseline=baseline, matcher=matcher_for_system(system.name), obs=obs,
    )
    return obs, result


def main() -> None:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\nUsage::")[0],
        epilog=EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("system", nargs="?", default="yarn")
    parser.add_argument("--points", type=int, default=None,
                        help="cap the number of dynamic crash points tested")
    parser.add_argument("--workers", type=int, default=1,
                        help="parallel injection workers (1 = sequential)")
    parser.add_argument("--order", choices=("point", "novelty"),
                        default="point",
                        help="point visit order (novelty = most dissimilar "
                             "crash points first)")
    parser.add_argument("--journal", default=None,
                        help="checkpoint outcomes here; rerun to resume")
    parser.add_argument("--out", default=None, help="trace JSONL path")
    parser.add_argument("--analytics", action="store_true",
                        help="cluster the trace into failure modes and "
                             "print the mode + canonical-detection tables")
    parser.add_argument("--rank", action="store_true",
                        help="also print the anomaly ranking "
                             "(implies --analytics)")
    parser.add_argument("--diff-fallback", action="store_true",
                        help="also run with random_fallback=True and diff")
    args = parser.parse_args()

    system = get_system(args.system)
    print(f"=== Tracing a CrashTuner campaign over {system.name} ===\n")
    analysis = analyze_system(system)
    profile = profile_system(system, analysis)
    baseline = build_baseline(system)

    obs, result = traced_campaign(system, analysis, profile, baseline,
                                  args.points, fallback=False,
                                  workers=args.workers, journal=args.journal,
                                  order=args.order)
    out = Path(args.out) if args.out else Path(tempfile.gettempdir()) / (
        f"crashtuner-{system.name}.jsonl")
    write_trace_jsonl(out, obs=obs, meta={"system": system.name,
                                          "points": len(result.outcomes),
                                          "order": args.order})
    print(f"trace written to {out} "
          f"({len(obs.tracer.spans)} spans, {len(obs.diagnoses)} diagnoses)\n")
    print(summarize(read_trace_jsonl(out)))

    if args.analytics or args.rank:
        report = analyze_trace(read_trace_jsonl(out))
        print(f"\n=== Failure-mode analytics ({out}) ===\n")
        print(format_modes(report))
        print()
        print(format_dedup(report))
        if args.rank:
            print()
            print(format_rank(report, top=10))
        first = result.first_detection()
        if first is not None:
            print(f"\nfirst detection at injection {first} "
                  f"({args.order} order)")

    if args.diff_fallback:
        obs2, _ = traced_campaign(system, analysis, profile, baseline,
                                  args.points, fallback=True)
        out2 = out.with_name(out.stem + "-fallback.jsonl")
        write_trace_jsonl(out2, obs=obs2, meta={"system": system.name,
                                                "random_fallback": True})
        print(f"\n=== Diff vs random-fallback run ({out2}) ===\n")
        print(diff(read_trace_jsonl(out), read_trace_jsonl(out2)))


if __name__ == "__main__":
    main()
