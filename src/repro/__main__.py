"""``python -m repro`` — the one front door to every repro command.

Dispatch is manual (first argument picks the tool, the rest is handed to
that tool's own parser verbatim) so ``python -m repro report --help``
shows the report CLI's real help, not a summary of it::

    python -m repro campaign yarn --points 20     one-shot campaign
    python -m repro daemon start /var/run/ct      the campaign service
    python -m repro report trace.jsonl            trace inspection
    python -m repro analytics modes trace.jsonl   failure-mode analytics
    python -m repro analysis report yarn          static-analysis report

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

    from repro.core.report import add_campaign_knobs, campaign_from_knobs
    from repro.core.report import format_summary, write_json

    parser = argparse.ArgumentParser(
        prog="python -m repro campaign",
        description="Run one crash-injection campaign: analyze the system, "
                    "profile its dynamic crash points, run the injections, "
                    "and print the detection summary.",
    )
    parser.add_argument("system", help="system under test (e.g. yarn)")
    add_campaign_knobs(parser)
    parser.add_argument("--journal", metavar="PATH", default=None,
                        help="checkpoint journal (reruns resume from it, and "
                             "reuse the analysis kept in PATH.setup/)")
    parser.add_argument("--json", metavar="PATH", default=None,
                        help="dump the result payload ('-' = stdout)")
    args = parser.parse_args(argv)

    from repro.api import matcher_for_system, prepare, run_campaign
    from repro.core.injection import JournalMismatch
    from repro.systems import bundled_systems, get_system

    known = sorted(s.name for s in bundled_systems())
    if args.system not in known:
        print(f"error: unknown system {args.system!r} — pick one of {known}",
              file=sys.stderr)
        return 2
    try:
        cfg = campaign_from_knobs(args, journal_path=args.journal)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    system = get_system(args.system)
    tested: List[int] = []  # points finalized by this process
    total = "?"
    try:
        # a journaled campaign keeps its phase 1 beside the journal, so a
        # resume skips straight to the first unrestored point
        analysis, profile, baseline = prepare(
            system, cfg.seed,
            cache_dir=f"{args.journal}.setup" if args.journal else None)
        total = len(profile.dynamic_points[:cfg.max_points])
        result = run_campaign(system, analysis, profile.dynamic_points,
                              campaign=cfg, baseline=baseline,
                              matcher=matcher_for_system(args.system),
                              on_outcome=lambda index, _: tested.append(index))
    except (JournalMismatch, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        # every execution mode has wound its children down by now, and the
        # journal (if any) holds one whole line per finalized point
        print(f"interrupted after {len(tested)} of {total} points — "
              + (f"rerun with --journal {args.journal} to resume"
                 if args.journal else
                 "nothing was kept; pass --journal PATH to make a run resumable"),
              file=sys.stderr)
        return 130
    payload = result.summary()
    print(format_summary(f"campaign {args.system}", payload))
    if args.json:
        write_json(payload, args.json)
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
