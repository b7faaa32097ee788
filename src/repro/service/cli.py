"""``python -m repro daemon`` — the campaign service's command line.

Every subcommand works against a *service directory* (the first
positional argument), talking to the daemon only through durable files —
so ``status`` on a SIGKILL'd daemon reports it dead rather than hanging,
and ``submit`` while no daemon runs spools the job for the next one.

Subcommands::

    start DIR       run a daemon in the foreground (--drain: exit when
                    the queue and workers are empty — CI's mode)
    submit DIR SYS  queue one campaign; prints the job id
    wait DIR JOB    block until a job's result lands; prints a summary
    status DIR      daemon liveness + job counts      [--json PATH|-]
    queue DIR       per-system queue depths + jobs    [--json PATH|-]
    recovery DIR    what the last startup pass did    [--json PATH|-]
    metrics DIR     the daemon's metrics snapshot     [--json PATH|-]
    drain DIR       ask the daemon to finish all work, then exit
    stop DIR        ask the daemon to exit now (workers keep running)
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.core.report import add_campaign_knobs, campaign_from_knobs
from repro.core.report import format_kv, format_summary, format_table, write_json
from repro.service.admin import ServiceUnavailable
from repro.service.daemon import HEARTBEAT_TIMEOUT


def _cmd_start(args: argparse.Namespace) -> int:
    from repro.service import CampaignDaemon

    daemon = CampaignDaemon(
        args.service_dir,
        workers=args.workers,
        heartbeat_timeout=args.heartbeat_timeout,
        poll_interval=args.poll,
        max_attempts=args.max_attempts,
        fsync=not args.no_fsync,
    )
    if args.drain:
        # pre-request a drain so run() exits once the queue empties
        from repro.service import ServiceClient

        ServiceClient(args.service_dir).drain()
    print(f"daemon {daemon.daemon_id} serving {daemon.layout.root} "
          f"({args.workers} workers)", flush=True)
    daemon.run()
    counts = daemon.table.counts()
    print(f"daemon exiting: {counts}", flush=True)
    return 0


def _cmd_submit(args: argparse.Namespace) -> int:
    from repro.service import ServiceClient

    client = ServiceClient(args.service_dir)
    job_id = client.submit(args.system, campaign_from_knobs(args),
                           trace=args.trace, job_id=args.job_id)
    print(job_id)
    return 0


def _cmd_wait(args: argparse.Namespace) -> int:
    from repro.service import ServiceClient

    client = ServiceClient(args.service_dir)
    try:
        result = client.wait(args.job_id, timeout=args.timeout)
    except (TimeoutError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.json:
        write_json(result, args.json)
    else:
        print(format_summary(f"job {args.job_id}", result))
    return 0 if result["state"] == "done" else 1


def _cmd_status(args: argparse.Namespace) -> int:
    from repro.service import service_status

    payload = service_status(args.service_dir)
    if args.json:
        write_json(payload, args.json)
        return 0
    daemon = payload.get("daemon", {})
    print(format_kv("daemon", {
        "alive": payload["daemon_alive"],
        "lock": payload["lock"],
        "daemon_id": daemon.get("daemon_id", "-"),
        "workers": daemon.get("workers", "-"),
        "draining": daemon.get("draining", False),
    }))
    print(format_kv("jobs", payload.get("counts", {})))
    return 0


def _cmd_queue(args: argparse.Namespace) -> int:
    from repro.service import queue_snapshot

    payload = queue_snapshot(args.service_dir)
    if args.json:
        write_json(payload, args.json)
        return 0
    queue = payload.get("queue", {})
    print(format_kv("queue", {
        "pending": queue.get("pending", 0),
        "per_system": queue.get("per_system", {}),
    }))
    rows = [[j["job_id"], j["system"], j["state"], j["attempts"],
             j.get("reason", "")] for j in payload.get("jobs", [])]
    print(format_table(["job", "system", "state", "attempts", "reason"],
                       rows, title=f"{len(rows)} jobs"))
    return 0


def _cmd_recovery(args: argparse.Namespace) -> int:
    from repro.service import recovery_report

    payload = recovery_report(args.service_dir)
    if args.json:
        write_json(payload, args.json)
        return 0
    if not payload:
        print("no recovery pass recorded yet")
        return 0
    print(format_kv("recovery", {
        "daemon_id": payload.get("daemon_id", "-"),
        "wal_frames": payload.get("wal_frames", 0),
        "torn_frames_truncated": payload.get("torn_frames_truncated", 0),
        "reattached": payload.get("reattached", []),
        "requeued": payload.get("requeued", []),
        "settled": payload.get("settled", []),
        "failed": payload.get("failed", []),
    }))
    return 0


def _cmd_metrics(args: argparse.Namespace) -> int:
    from repro.service import metrics_snapshot

    payload = metrics_snapshot(args.service_dir)
    if args.json:
        write_json(payload, args.json)
        return 0
    print(format_kv("counters", payload.get("counters", {})))
    print(format_kv("gauges", payload.get("gauges", {})))
    return 0


def _cmd_drain(args: argparse.Namespace) -> int:
    from repro.service import ServiceClient

    ServiceClient(args.service_dir).drain()
    print("drain requested")
    return 0


def _cmd_stop(args: argparse.Namespace) -> int:
    from repro.service import ServiceClient

    ServiceClient(args.service_dir).stop()
    print("stop requested")
    return 0


def _add_json(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--json", metavar="PATH",
                        help="dump the JSON payload to PATH ('-' = stdout)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro daemon",
        description=__doc__.split("\n\nSubcommands::")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    start = sub.add_parser("start", help="run a daemon in the foreground")
    start.add_argument("service_dir")
    start.add_argument("--workers", type=int, default=2)
    start.add_argument("--poll", type=float, default=0.2,
                       help="seconds between scheduling ticks")
    start.add_argument("--heartbeat-timeout", type=float,
                       default=HEARTBEAT_TIMEOUT)
    start.add_argument("--max-attempts", type=int, default=3)
    start.add_argument("--no-fsync", action="store_true",
                       help="skip the per-frame WAL fsync (tests only)")
    start.add_argument("--drain", action="store_true",
                       help="exit once the queue and workers are empty")
    start.set_defaults(fn=_cmd_start)

    submit = sub.add_parser("submit", help="queue one campaign")
    submit.add_argument("service_dir")
    submit.add_argument("system")
    add_campaign_knobs(submit, workers_flag="--campaign-workers")
    submit.add_argument("--trace", action="store_true",
                        help="export the job's JSONL trace")
    submit.add_argument("--job-id", default=None)
    submit.set_defaults(fn=_cmd_submit)

    wait = sub.add_parser("wait", help="block until a job finishes")
    wait.add_argument("service_dir")
    wait.add_argument("job_id")
    wait.add_argument("--timeout", type=float, default=300.0)
    _add_json(wait)
    wait.set_defaults(fn=_cmd_wait)

    for name, fn in (("status", _cmd_status), ("queue", _cmd_queue),
                     ("recovery", _cmd_recovery), ("metrics", _cmd_metrics)):
        view = sub.add_parser(name, help=f"the {name} admin view")
        view.add_argument("service_dir")
        _add_json(view)
        view.set_defaults(fn=fn)

    for name, fn in (("drain", _cmd_drain), ("stop", _cmd_stop)):
        ctl = sub.add_parser(name, help=f"request a daemon {name}")
        ctl.add_argument("service_dir")
        ctl.set_defaults(fn=fn)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ServiceUnavailable as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:  # a bad campaign knob, an unknown system
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via -m repro
    sys.exit(main())
