"""Nothing outlives a SIGKILLed campaign process.

The campaign daemon SIGKILLs exactly one pid when a job goes STALE — the
worker's, which is the campaign process.  Whatever that process forked
(snapshot children, pool workers) never gets a signal of its own, so each
execution mode has to wind itself down: no process left in the campaign's
session, nothing left in its temporary directory.
"""

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

pytestmark = pytest.mark.skipif(
    not Path("/proc/self/stat").exists(), reason="needs Linux /proc")

_CAMPAIGN = """
import os, signal, sys
from repro.bugs import matcher_for_system
from repro.core.injection import CampaignConfig, run_campaign
from repro.core.pipeline import prepare
from repro.systems import get_system

system = get_system("yarn")
analysis, profile, baseline = prepare(system)
seen = []

def on_outcome(index, outcome):
    seen.append(index)
    if len(seen) == 5:
        os.kill(os.getpid(), signal.SIGKILL)

run_campaign(system, analysis, profile.dynamic_points,
             campaign=CampaignConfig(execution=sys.argv[1], workers=int(sys.argv[2])),
             baseline=baseline, matcher=matcher_for_system("yarn"),
             on_outcome=on_outcome)
"""


def _alive_in_session(sid):
    """Pids of the session's processes, zombies aside (whoever inherits
    an orphan reaps it; it holds nothing meanwhile)."""
    alive = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            # "pid (comm) state ppid pgrp session ..."; comm may hold spaces
            fields = stat.read_text().rpartition(")")[2].split()
        except OSError:
            continue  # exited while we were looking
        if fields[0] != "Z" and int(fields[3]) == sid:
            alive.append(int(stat.parent.name))
    return alive


@pytest.mark.parametrize("execution, workers",
                         [("snapshot", 1), ("snapshot", 2), ("replay", 2)])
def test_sigkilled_campaign_leaves_nothing_behind(tmp_path, execution, workers):
    proc = subprocess.Popen(
        [sys.executable, "-c", _CAMPAIGN, execution, str(workers)],
        env=dict(os.environ, TMPDIR=str(tmp_path)), start_new_session=True)
    assert proc.wait(timeout=120) == -signal.SIGKILL
    deadline = time.monotonic() + 10
    while _alive_in_session(proc.pid) and time.monotonic() < deadline:
        time.sleep(0.1)
    survivors = _alive_in_session(proc.pid)
    try:
        assert not survivors, f"{len(survivors)} process(es) outlived the campaign"
        assert not list(tmp_path.glob("crashtuner-snap-*"))
    finally:
        for pid in survivors:
            os.kill(pid, signal.SIGKILL)
