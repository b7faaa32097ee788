#!/usr/bin/env python3
"""The campaign service: submit jobs, kill the daemon, lose nothing.

CrashTuner's thesis is that distributed systems must survive crashes at
their worst moments — the campaign service applies that standard to the
tool itself.  This script runs the whole drama in one process tree:

1. submit two campaigns to a service directory (no daemon running yet —
   submissions just spool durably),
2. start a daemon with two workers and let it dispatch,
3. SIGKILL the daemon mid-campaign,
4. start a *new* daemon: it replays the write-ahead log, finds the
   orphaned jobs, reattaches to workers that are still alive and
   resumes dead ones from their journal checkpoint,
5. show that the finished results report how much work resuming saved.

    python examples/campaign_service.py [service_dir]

Everything here is also reachable from the shell:

    python -m repro daemon submit DIR yarn --points 20
    python -m repro daemon start DIR --workers 2 --drain
    python -m repro daemon status DIR
"""

import os
import signal
import sys
import tempfile
import time

from repro.api import CampaignConfig, attach, format_kv
from repro.service import CampaignDaemon, ServiceUnavailable


def run_daemon(service_dir, drain=True):
    """Fork a daemon; returns its pid (the child never returns)."""
    pid = os.fork()
    if pid:
        return pid
    # the default 30s heartbeat timeout: generous beats the occasional
    # slow injection point (a live-but-quiet worker must not be "hung")
    daemon = CampaignDaemon(service_dir, workers=2, poll_interval=0.05)
    if drain:
        attach(service_dir).drain()
    daemon.run()
    os._exit(0)


def main() -> None:
    service_dir = (sys.argv[1] if len(sys.argv) > 1
                   else tempfile.mkdtemp(prefix="repro-service-"))
    client = attach(service_dir)

    # 1. submit before any daemon exists: the spool is the mailbox
    jobs = [client.submit("yarn", CampaignConfig(max_points=30)),
            client.submit("cassandra", CampaignConfig(max_points=20))]
    print(f"submitted {jobs} into {service_dir} (no daemon yet)\n")

    # 2. first daemon starts, ingests the spool, dispatches workers
    victim = run_daemon(service_dir, drain=False)
    deadline = time.time() + 60
    while time.time() < deadline:
        try:
            status = client.status()
        except ServiceUnavailable:  # daemon still booting
            time.sleep(0.05)
            continue
        if status["counts"]["running"] or status["counts"]["done"]:
            break
        time.sleep(0.05)

    # 3. the worst moment: kill -9, no cleanup handlers run
    os.kill(victim, signal.SIGKILL)
    os.waitpid(victim, 0)
    print(f"SIGKILLed daemon pid {victim} mid-campaign")
    # a dead pid reads dead immediately — liveness is heartbeat AND pid
    status = client.status()
    print(f"daemon_alive now: {status['daemon_alive']}\n")

    # 4. a fresh daemon recovers: WAL replay + sentinel triage
    successor = run_daemon(service_dir, drain=True)
    os.waitpid(successor, 0)
    recovery = client.recovery()
    print(format_kv("recovery pass", {
        "wal_frames": recovery["wal_frames"],
        "reattached (live workers)": recovery["reattached"],
        "requeued (dead workers)": recovery["requeued"],
        "settled (finished orphans)": recovery["settled"],
    }))
    print()

    # 5. the punchline: done, and nothing before a checkpoint re-ran
    for job_id in jobs:
        result = client.result(job_id)
        print(format_kv(f"job {job_id}", {
            "state": result["state"],
            "points": result["n_points"],
            "resumed from journal": result["resumed"],
            "bugs": ", ".join(sorted(result["detected_bugs"])) or "-",
        }))


if __name__ == "__main__":
    main()
