"""``CampaignDaemon._judge``: one verdict per RUNNING job, every cell.

The recovery pass and every later tick make the same call, so the
cells are enumerated once — who forked the worker × what ``result.json``
says × what the sentinel says — over crafted job directories and a
sleeping child standing in for the worker.  Each cell checks the
verdict *and* what it left behind: the pid, the sentinel, the result,
the journal, and the frames appended to the WAL.
"""

import multiprocessing
import os
import signal
import time

import pytest

from repro.durable import WriteAheadLog, atomic_write_json
from repro.service import CampaignDaemon
from repro.service.jobs import DONE, QUEUED, RUNNING, JobSpec, JobTable
from repro.service.worker import JOURNAL_NAME, RESULT_NAME, SENTINEL_NAME

JOB = "job-0"
JOURNAL = b'{"type": "outcome", "index": 0}\n'
TIMEOUT = 5.0

SENTINELS = ("alive", "stale-dead-pid", "stale-live-pid", "missing")

#: (worker, result.json) -> verdict per sentinel column, in SENTINELS order
VERDICTS = {
    ("own", "matching"): ("settled", "settled", "settled", "settled"),
    ("own", "stale"): (None, "requeued", "requeued", None),
    ("own", "none"): (None, "requeued", "requeued", None),
    ("inherited", "matching"): ("settled", "settled", "settled", "settled"),
    ("inherited", "stale"): (None, "requeued", "requeued", "requeued"),
    ("inherited", "none"): (None, "requeued", "requeued", "requeued"),
}
CELLS = [(worker, result, sentinel, verdicts[i])
         for (worker, result), verdicts in VERDICTS.items()
         for i, sentinel in enumerate(SENTINELS)]


@pytest.fixture
def sleeper():
    """A live child process; killed and reaped at teardown."""
    proc = multiprocessing.get_context("fork").Process(
        target=time.sleep, args=(120,))
    proc.start()
    yield proc
    proc.kill()
    proc.join(5.0)


def running_job(tmp_path, attempts=2, **kwargs):
    """A started daemon whose table holds JOB as RUNNING, never forked."""
    daemon = CampaignDaemon(tmp_path, workers=1, heartbeat_timeout=TIMEOUT,
                            fsync=False, **kwargs)
    daemon.start()
    daemon.submit(JobSpec(job_id=JOB, system="cassandra"))
    for attempt in range(attempts):
        if attempt:
            daemon._append(JobTable.transition_record(JOB, QUEUED))
        daemon._append(JobTable.transition_record(JOB, RUNNING))
    job_dir = daemon.layout.job_dir(JOB)
    job_dir.mkdir(parents=True)
    (job_dir / JOURNAL_NAME).write_bytes(JOURNAL)
    return daemon, daemon.table.jobs[JOB], job_dir


def write_sentinel(job_dir, pid, age):
    atomic_write_json(job_dir / SENTINEL_NAME, {
        "owner": JOB, "pid": pid, "started_at": time.time() - age,
        "heartbeat_at": time.time() - age})


def frames(daemon):
    return WriteAheadLog(daemon.layout.wal).replay()


@pytest.mark.parametrize("worker,result,sentinel,verdict", CELLS)
def test_judgement_matrix(tmp_path, sleeper, worker, result, sentinel, verdict):
    daemon, job, job_dir = running_job(tmp_path)
    if sentinel == "stale-dead-pid":
        sleeper.kill()
        os.waitid(os.P_PID, sleeper.pid, os.WEXITED | os.WNOWAIT)
        if worker == "inherited":
            sleeper.join(5.0)  # reaped: the pid is gone, not a zombie
    if worker == "own":
        daemon._procs[JOB] = sleeper
    if sentinel != "missing":
        write_sentinel(job_dir, sleeper.pid,
                       age=0.0 if sentinel == "alive" else 2 * TIMEOUT)
    if result != "none":
        atomic_write_json(job_dir / RESULT_NAME, {
            "state": "done", "error": None, "wall_seconds": 0.1,
            "attempts": job.attempts - (result == "stale")})
    before = frames(daemon)

    try:
        assert daemon._judge(job) == verdict
    finally:
        daemon.close()

    appended = frames(daemon)[len(before):]
    assert (job_dir / JOURNAL_NAME).read_bytes() == JOURNAL
    assert not list(job_dir.glob("*.claimed-*"))
    killed = daemon.metrics.snapshot()["counters"].get(
        "service.workers_killed", 0)
    if verdict is None:
        assert appended == [] and job.state == RUNNING
        assert sleeper.is_alive() and killed == 0
        assert (job_dir / SENTINEL_NAME).exists() == (sentinel != "missing")
        assert (job_dir / RESULT_NAME).exists() == (result == "stale")
        assert job.pid == (sleeper.pid if sentinel == "alive" else 0)
        assert (JOB in daemon._procs) == (worker == "own")
        return
    assert [(rec["job_id"], rec["state"]) for rec in appended] == \
        [(JOB, DONE if verdict == "settled" else QUEUED)]
    assert job.state == appended[0]["state"] and job.attempts == 2
    assert JOB not in daemon._procs
    if verdict == "settled":
        # the result is the worker's last word: nothing else is touched
        assert (job_dir / RESULT_NAME).exists() and killed == 0
        assert sleeper.is_alive() == (sentinel != "stale-dead-pid")
        return
    assert not (job_dir / RESULT_NAME).exists()
    assert not (job_dir / SENTINEL_NAME).exists()
    assert killed == (sentinel == "stale-live-pid")
    if sentinel == "stale-live-pid":
        sleeper.join(5.0)
        assert sleeper.exitcode == -signal.SIGKILL
    elif sentinel == "missing":
        assert sleeper.is_alive()  # no sentinel names it: not ours to kill


def test_out_of_attempts_fails_instead_of_requeueing(tmp_path, sleeper):
    daemon, job, job_dir = running_job(tmp_path, attempts=2, max_attempts=2)
    write_sentinel(job_dir, sleeper.pid, age=2 * TIMEOUT)
    before = frames(daemon)
    try:
        assert daemon._judge(job) == "failed"
    finally:
        daemon.close()
    (rec,) = frames(daemon)[len(before):]
    assert (rec["state"], job.state) == ("failed", "failed")
    assert "gave up after 2 attempts (worker stale)" in job.reason
    assert daemon.table.next_job() is None
    sleeper.join(5.0)
    assert sleeper.exitcode == -signal.SIGKILL  # hung, so still killed
    assert (job_dir / JOURNAL_NAME).read_bytes() == JOURNAL


def test_recovery_pass_is_the_same_judgement_plus_a_report(tmp_path, sleeper):
    # JOB (no sentinel, no result) and three more RUNNING jobs are what
    # a dead daemon leaves behind
    daemon, _, _ = running_job(tmp_path, attempts=1)
    jobs = {"settles": None, "reattaches": None, "requeues": None}
    for job_id in jobs:
        daemon.submit(JobSpec(job_id=job_id, system="cassandra"))
        daemon._append(JobTable.transition_record(job_id, RUNNING))
        jobs[job_id] = daemon.layout.job_dir(job_id)
        jobs[job_id].mkdir(parents=True)
    atomic_write_json(jobs["settles"] / RESULT_NAME,
                      {"state": "done", "error": None, "attempts": 1})
    write_sentinel(jobs["reattaches"], sleeper.pid, age=0.0)
    # a SIGKILL'd daemon runs no close(); its lock would read stale, but
    # this one carries our own live pid, so drop it instead
    daemon.wal.close()
    os.unlink(daemon.layout.lock)

    successor = CampaignDaemon(tmp_path, workers=4,
                               heartbeat_timeout=TIMEOUT, fsync=False)
    successor.start()
    try:
        report = successor._recovery
        assert report["settled"] == ["settles"]
        assert report["reattached"] == ["reattaches"]
        assert report["requeued"] == [JOB, "requeues"]  # no sentinel at all
        assert report["failed"] == []
        counters = successor.metrics.snapshot()["counters"]
        assert counters["service.jobs_requeued"] == 2
        assert successor.table.counts() == {
            "queued": 2, "running": 1, "done": 1, "failed": 0}
        assert successor.status_payload()["jobs"]["reattaches"]["pid"] \
            == sleeper.pid
    finally:
        successor.close()
