"""``python -m repro`` — the one front door to every repro command.

Dispatch is manual (first argument picks the tool, the rest is handed to
that tool's own parser verbatim) so ``python -m repro report --help``
shows the report CLI's real help, not a summary of it::

    python -m repro campaign yarn --points 20     one-shot campaign
    python -m repro daemon start /var/run/ct      the campaign service
    python -m repro report trace.jsonl            trace inspection
    python -m repro analytics modes trace.jsonl   failure-mode analytics
    python -m repro analysis yarn                 static-analysis report

The older module entry points (``python -m repro.obs.analytics`` etc.)
were removed in 1.5.0 after one release as deprecated aliases; they now
exit with a pointer to the subcommand that replaced them.
"""

from __future__ import annotations

import os
import sys
from typing import Callable, List, Optional


def _run_campaign_cmd(argv: List[str]) -> int:
    """The ``campaign`` subcommand: one full pipeline run, one summary."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro campaign",
        description="Run one crash-injection campaign: analyze the system, "
                    "profile its dynamic crash points, run the injections, "
                    "and print the detection summary.",
    )
    parser.add_argument("system", help="system under test (e.g. yarn)")
    parser.add_argument("--points", type=int, default=None,
                        help="cap the number of points tested")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--workers", type=int, default=1,
                        help="campaign worker-pool size")
    parser.add_argument("--order", choices=("point", "novelty"),
                        default="point")
    parser.add_argument("--execution", choices=("replay", "snapshot"),
                        default="replay")
    parser.add_argument("--select", choices=("full", "representative"),
                        default="full",
                        help="'representative' clusters points into "
                             "equivalence classes and tests one per class")
    parser.add_argument("--audit-fraction", type=float, default=0.1,
                        help="fraction of non-representative members "
                             "executed anyway to cross-check their class "
                             "(representative mode only)")
    parser.add_argument("--journal", metavar="PATH", default=None,
                        help="checkpoint journal (reruns resume from it, and "
                             "reuse the analysis kept in PATH.setup/)")
    parser.add_argument("--json", metavar="PATH", default=None,
                        help="dump the result payload ('-' = stdout)")
    args = parser.parse_args(argv)

    from repro.api import (
        CampaignConfig,
        format_kv,
        matcher_for_system,
        prepare,
        run_campaign,
    )
    from repro.core.report import write_json
    from repro.systems import all_systems, get_system

    known = sorted(s.name for s in all_systems())
    if args.system not in known:
        print(f"error: unknown system {args.system!r} — pick one of {known}",
              file=sys.stderr)
        return 2
    cfg = CampaignConfig(
        max_points=args.points, seed=args.seed, workers=args.workers,
        point_order=args.order, execution=args.execution,
        point_select=args.select, audit_fraction=args.audit_fraction,
        journal_path=args.journal,
    )
    system = get_system(args.system)
    # a journaled campaign keeps its phase 1 beside the journal, so a
    # resume skips straight to the first unrestored point
    analysis, profile, baseline = prepare(
        system, cfg.seed,
        cache_dir=f"{args.journal}.setup" if args.journal else None)
    result = run_campaign(system, analysis, profile.dynamic_points,
                          campaign=cfg, baseline=baseline,
                          matcher=matcher_for_system(args.system))
    bugs = result.detected_bugs()
    summary = {
        "points": len(result.outcomes),
        "resumed": result.resumed,
        "bugs": ", ".join(f"{k}({len(v)})" for k, v in sorted(bugs.items()))
                or "-",
        "first_detection": result.first_detection(),
        "sim_seconds": f"{result.sim_seconds:.1f}",
        "wall_seconds": f"{result.wall_seconds:.2f}",
    }
    if result.classes is not None:
        cs = result.classes
        summary["classes"] = (
            f"{cs['classes']} ({cs['executed']} executed, "
            f"{cs['audited']} audited, {cs['promoted']} promoted)"
        )
    print(format_kv(f"campaign {args.system}", summary))
    if args.json:
        write_json({
            "system": args.system,
            "n_points": len(result.outcomes),
            "resumed": result.resumed,
            "detected_bugs": {k: len(v) for k, v in bugs.items()},
            "first_detection": result.first_detection(),
            "outcomes": [o.to_dict() for o in result.outcomes],
            "point_select": result.point_select,
            "classes": result.classes,
            "sim_seconds": result.sim_seconds,
            "wall_seconds": result.wall_seconds,
        }, args.json)
    return 0


def _daemon(argv: List[str]) -> int:
    from repro.service.cli import main
    return main(argv)


def _report(argv: List[str]) -> int:
    from repro.obs.report import main
    return main(argv)


def _analytics(argv: List[str]) -> int:
    from repro.obs.analytics import main
    return main(argv)


def _analysis(argv: List[str]) -> int:
    from repro.core.analysis.__main__ import main
    return main(argv)


#: subcommand -> (runner, one-line help)
COMMANDS = {
    "campaign": (_run_campaign_cmd,
                 "run one crash-injection campaign and print its summary"),
    "daemon": (_daemon,
               "the campaign service: start/submit/wait/status/drain/stop"),
    "report": (_report, "inspect JSONL traces (summary, spans, diff)"),
    "analytics": (_analytics,
                  "failure-mode analytics over traces (modes, dedup, rank)"),
    "analysis": (_analysis, "static-analysis reports with provenance"),
}


def _usage(out=sys.stdout) -> None:
    print("usage: python -m repro COMMAND [ARGS...]", file=out)
    print(file=out)
    print("commands:", file=out)
    for name, (_, text) in COMMANDS.items():
        print(f"  {name:<10} {text}", file=out)
    print(file=out)
    print("run 'python -m repro COMMAND --help' for a command's own help",
          file=out)


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if not argv or argv[0] in ("-h", "--help", "help"):
        _usage()
        return 0
    command, rest = argv[0], argv[1:]
    entry = COMMANDS.get(command)
    if entry is None:
        print(f"error: unknown command {command!r}", file=sys.stderr)
        _usage(out=sys.stderr)
        return 2
    runner: Callable[[List[str]], int] = entry[0]
    try:
        return runner(rest) or 0
    except BrokenPipeError:
        # a downstream pager/head closed the pipe; suppress the shutdown
        # flush so the interpreter does not report the same break again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    sys.exit(main())
