"""The campaign daemon end to end: the tool survives its own medicine.

The acceptance bar mirrors the paper's: ``kill -9`` the daemon or a
worker at an arbitrary instant, restart, and the finished campaign's
outcomes are byte-identical to an uninterrupted run — with nothing
before the last checkpoint re-executed.  ``hbase`` is the kill target
(its ~2.6s campaign has enough runway to kill mid-run); the fast
systems cover the control paths.
"""

import json
import os
import signal
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest

from repro.core.injection import CampaignConfig
from repro.durable import WriteAheadLog, encode_frame, read_json
from repro.service import daemon as daemon_module
from repro.service import sentinel as sentinel_module
from repro.service import (
    CampaignDaemon,
    DaemonAlreadyRunning,
    ServiceClient,
)
from repro.service.cli import main as cli_main
from repro.service.jobs import JobSpec
from repro.service.sentinel import Sentinel, pid_alive
from repro.service.worker import JOURNAL_NAME, RESULT_NAME, SENTINEL_NAME
from tests.conftest import PINS

KILL_SYSTEM = "hbase"

def fork_daemon(service_dir, **kwargs):
    """A daemon in a forked child; returns its pid."""
    pid = os.fork()
    if pid:
        return pid
    try:
        CampaignDaemon(service_dir, **kwargs).run()
    finally:
        os._exit(0)


def wait_for(predicate, timeout=60.0, interval=0.02, what="condition"):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        value = predicate()
        if value:
            return value
        time.sleep(interval)
    raise AssertionError(f"timed out waiting for {what}")


def journal_outcomes(path):
    """Outcome records among the journal's acknowledged frames.

    The journal may be mid-append while we peek (or torn by the kill we
    just delivered) — a torn last line is not counted, as a resume would
    not count it either.
    """
    return [rec for rec in WriteAheadLog(path).replay()
            if rec["type"] == "outcome"]


def valid_prefix(path):
    """The journal bytes a resume is guaranteed to preserve."""
    return b"".join(map(encode_frame, WriteAheadLog(path).replay()))


def kill_and_reap(pid):
    try:
        os.kill(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    os.waitpid(pid, 0)


def drain_in_process(service_dir, **kwargs):
    daemon = CampaignDaemon(service_dir, **kwargs)
    ServiceClient(service_dir).drain()
    daemon.run()
    return daemon


# ----------------------------------------------------------------------
# the happy path + admin API shapes
# ----------------------------------------------------------------------
def test_submit_drain_done_and_admin_views(tmp_path):
    client = ServiceClient(tmp_path)
    job_id = client.submit("cassandra", CampaignConfig())
    drain_in_process(tmp_path, workers=2, poll_interval=0.01, fsync=False)

    result = client.result(job_id)
    assert result["state"] == "done"
    assert result["fingerprint"] == PINS["cassandra"][0]
    assert result["attempts"] == 1

    status = client.status()
    assert status["daemon_alive"] is False  # drained and exited
    assert status["counts"] == {"queued": 0, "running": 0,
                                "done": 1, "failed": 0}
    assert status["jobs"][job_id]["state"] == "done"

    queue = client.queue()
    assert queue["queue"]["pending"] == 0
    assert [j["job_id"] for j in queue["jobs"]] == [job_id]

    recovery = client.recovery()
    assert recovery["requeued"] == [] and recovery["reattached"] == []

    metrics = client.metrics()
    assert metrics["counters"]["service.jobs_submitted"] == 1
    assert metrics["counters"]["service.jobs_completed"] == 1
    assert metrics["histograms"]["service.job_wall_seconds"]["count"] == 1

    # wait() returns instantly on a settled job
    assert client.wait(job_id, timeout=5.0)["state"] == "done"


def test_result_written_by_1_13_0_is_still_readable(tmp_path, capsys):
    client = ServiceClient(tmp_path)
    job_id = client.submit("cassandra", CampaignConfig())
    drain_in_process(tmp_path, workers=1, poll_interval=0.01, fsync=False)
    result_path = tmp_path / "jobs" / job_id / RESULT_NAME
    result = json.loads(result_path.read_text())
    # up to 1.13.0 ``fingerprint`` was a second copy of ``outcomes``
    result["fingerprint"] = [dict(o, wall_seconds=None) for o in result["outcomes"]]
    result_path.write_text(json.dumps(result))

    assert client.wait(job_id, timeout=5.0)["fingerprint"] == result["fingerprint"]
    assert cli_main(["wait", str(tmp_path), job_id]) == 0
    assert cli_main(["status", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "CA-15131(1)" in out and "digest" in out and "'point'" not in out


def test_job_spooled_and_result_written_by_1_14_0_still_work(tmp_path, capsys):
    client = ServiceClient(tmp_path)
    full, representative = client.submit("cassandra"), client.submit("cassandra")
    # up to 1.14.0 a spooled config carried the audit lane's size, and up
    # to 1.17.0 which points ran
    for job_id, select in ((full, "full"), (representative, "representative")):
        spooled = tmp_path / "spool" / f"{job_id}.json"
        spec = json.loads(spooled.read_text())
        assert "audit_fraction" not in spec["campaign"]
        spec["campaign"].update(audit_fraction=0.1, point_select=select)
        spooled.write_text(json.dumps(spec))
    drain_in_process(tmp_path, workers=1, poll_interval=0.01, fsync=False)
    result_path = tmp_path / "jobs" / full / RESULT_NAME
    result = json.loads(result_path.read_text())
    assert result["state"] == "done"
    assert result["fingerprint"] == PINS["cassandra"][0]
    # one point per predicted class no longer runs: quarantined as malformed
    assert (tmp_path / "spool" / f"{representative}.rejected").exists()
    assert client.job(representative) is None

    # ...and a result's class statistics, which nothing prints any more
    result["classes"] = {"classes": 3, "executed": 3, "propagated": 0,
                         "audited": 0, "promoted": 0}
    result_path.write_text(json.dumps(result))
    assert cli_main(["wait", str(tmp_path), full]) == 0
    out = capsys.readouterr().out
    assert PINS["cassandra"][0] in out and "classes" not in out


def test_a_wal_submit_this_version_cannot_parse_fails_alone(tmp_path):
    # what older daemons acknowledged: a 1.10.0 campaign ordered by an
    # analytics file, and a 1.17.0 one that ran one point per predicted
    # class — which a 1.17.0 daemon had already dispatched when it died
    good = JobSpec("good", "cassandra")
    retired = {
        "ordered": dict(CampaignConfig().to_dict(), analytics=True,
                        analytics_path="modes.json"),
        "classes": dict(CampaignConfig().to_dict(), point_select="representative"),
    }
    with WriteAheadLog(tmp_path / "wal.jsonl", fsync=False) as wal:
        wal.append({"type": "submit", "job": good.to_dict()})
        for job_id, campaign in retired.items():
            wal.append({"type": "submit", "job": dict(
                JobSpec(job_id, "cassandra").to_dict(), campaign=campaign)})
        wal.append({"type": "transition", "job_id": "classes",
                    "state": "running", "at": 0.0, "extra": {}})

    daemon = drain_in_process(tmp_path, workers=1, poll_interval=0.01,
                              fsync=False)
    jobs = {job.job_id: job for job in daemon.table.jobs.values()}
    assert (jobs["good"].state, jobs["good"].attempts) == ("done", 1)
    result = ServiceClient(tmp_path).result("good")
    assert result["fingerprint"] == PINS["cassandra"][0]
    for job_id, needle in (("ordered", "analytics_path was removed in 1.11.0"),
                           ("classes", "removed in 1.18.0")):
        job = jobs[job_id]
        assert (job.state, job.attempts) == ("failed", 0)
        assert needle in job.reason and "\n" not in job.reason
        with pytest.raises(RuntimeError, match="failed"):
            ServiceClient(tmp_path).wait(job_id, timeout=5.0)
    assert not (tmp_path / "jobs" / "classes").exists()


def test_submit_rejects_unknown_system(tmp_path):
    with pytest.raises(ValueError, match="unknown system"):
        ServiceClient(tmp_path).submit("hadoop-classic")


def test_submit_accepts_kube_and_the_job_reaches_its_pin(tmp_path):
    # kube is bundled beside Table 4's five; its campaign is pinned too
    client = ServiceClient(tmp_path)
    job_id = client.submit("kube", CampaignConfig())
    drain_in_process(tmp_path, workers=1, poll_interval=0.01, fsync=False)
    result = client.result(job_id)
    assert result["state"] == "done", result.get("error")
    assert result["fingerprint"] == PINS["kube"][0]


# ----------------------------------------------------------------------
# the quiet tick: an idle step writes nothing, a change is written at once
# ----------------------------------------------------------------------
def _atomic_writes(monkeypatch):
    """Paths the daemon and its lock sentinel write from now on, in order."""
    writes = []
    real = daemon_module.atomic_write_json

    def spy(path, payload, **kwargs):
        writes.append(Path(path))
        return real(path, payload, **kwargs)

    monkeypatch.setattr(daemon_module, "atomic_write_json", spy)
    monkeypatch.setattr(sentinel_module, "atomic_write_json", spy)
    return writes


def test_an_idle_daemon_writes_status_at_most_once_in_50_steps(
        tmp_path, monkeypatch):
    daemon = CampaignDaemon(tmp_path, workers=1, fsync=False)
    daemon.start()
    try:
        writes = _atomic_writes(monkeypatch)
        for _ in range(50):
            assert daemon.step() is False
        assert writes.count(daemon.layout.status) <= 1, writes
        # and no lock beat falls due in 50 fast steps
        assert daemon.layout.lock not in writes, writes
    finally:
        daemon.close()


def test_every_transition_is_in_status_after_the_step_that_made_it(tmp_path):
    client = ServiceClient(tmp_path)
    job_id = client.submit("cassandra", CampaignConfig())
    daemon = CampaignDaemon(tmp_path, workers=1, fsync=False)
    daemon.start()
    seen = [read_json(daemon.layout.status)["jobs"][job_id]["state"]]
    try:
        while True:
            busy = daemon.step()
            on_disk = read_json(daemon.layout.status)
            assert on_disk.pop("updated_at") > 0
            # the file is the daemon's state, whatever the step changed
            assert on_disk == daemon.status_payload()
            state = on_disk["jobs"][job_id]["state"]
            if seen[-1] != state:
                seen.append(state)
            if not busy:
                break
            time.sleep(0.01)
    finally:
        daemon.close()
    assert seen == ["queued", "running", "done"]
    assert read_json(daemon.layout.status)["daemon"]["exited"] is True


class FakeClock:
    """``time`` for the daemon and sentinel modules, advanced by hand."""

    def __init__(self):
        self.now = 1_000_000.0

    def time(self):
        return self.now

    monotonic = time


def _fake_clock(monkeypatch):
    clock = FakeClock()
    monkeypatch.setattr(daemon_module, "time", clock)
    monkeypatch.setattr(sentinel_module, "time", clock)
    return clock


def test_a_lock_beaten_once_per_quarter_timeout_never_goes_stale(
        tmp_path, monkeypatch):
    clock = _fake_clock(monkeypatch)
    start = clock.now
    # a short worker timeout does not shorten the lock's: every reader
    # judges the lock under HEARTBEAT_TIMEOUT
    daemon = CampaignDaemon(tmp_path, workers=1, heartbeat_timeout=0.5,
                            fsync=False)
    daemon.start()
    lock = Sentinel(daemon.layout.lock)
    beats = [lock.read()["heartbeat_at"]]
    try:
        # a step every 10 ms for two lock timeouts and a bit
        for i in range(1, 6101):
            clock.now = start + i * 0.01
            daemon.step()
            assert lock.status(daemon_module.HEARTBEAT_TIMEOUT) == "alive", i
            if lock.read()["heartbeat_at"] != beats[-1]:
                beats.append(lock.read()["heartbeat_at"])
    finally:
        daemon.close()
    # a beat at the first step a quarter timeout after the last, no other
    quarter = daemon_module.HEARTBEAT_TIMEOUT / 4
    assert len(beats) == 9, beats
    assert all(quarter <= b - a < quarter + 0.01 + 1e-6
               for a, b in zip(beats, beats[1:])), beats


def test_a_short_timeout_newcomer_is_refused_between_beats(
        tmp_path, monkeypatch):
    clock = _fake_clock(monkeypatch)
    first = CampaignDaemon(tmp_path, workers=1, fsync=False)
    first.start()
    try:
        # past the newcomer's 1 s, before the first daemon's next beat
        clock.now += daemon_module.HEARTBEAT_TIMEOUT / 4 - 0.5
        first.step()
        with pytest.raises(DaemonAlreadyRunning):
            CampaignDaemon(tmp_path, workers=1, heartbeat_timeout=1.0).start()
        assert Sentinel(first.layout.lock).read()["daemon_id"] == \
            first.daemon_id
    finally:
        first.close()


# ----------------------------------------------------------------------
# kill -9 the daemon: live workers are reattached, not restarted
# ----------------------------------------------------------------------
def test_daemon_killed_worker_survives_and_is_reattached(tmp_path):
    client = ServiceClient(tmp_path)
    job_id = client.submit(KILL_SYSTEM, CampaignConfig())
    journal = tmp_path / "jobs" / job_id / JOURNAL_NAME

    victim = fork_daemon(tmp_path, workers=1, poll_interval=0.02)
    try:
        # kill once the worker is demonstrably mid-campaign
        wait_for(lambda: len(journal_outcomes(journal)) >= 2,
                 what="worker checkpoints")
    finally:
        kill_and_reap(victim)

    # the worker (the daemon's child) must have outlived it
    sentinel = Sentinel(tmp_path / "jobs" / job_id / SENTINEL_NAME).read()
    assert pid_alive(sentinel["pid"]), "worker died with the daemon"

    daemon = drain_in_process(tmp_path, workers=1, poll_interval=0.02)
    assert job_id in daemon._recovery["reattached"]

    result = client.result(job_id)
    assert result["state"] == "done"
    assert result["attempts"] == 1, "reattached job must not be re-dispatched"
    assert result["resumed"] == 0, "reattached worker never restarted"
    assert result["fingerprint"] == PINS[KILL_SYSTEM][0]


# ----------------------------------------------------------------------
# kill -9 the daemon AND its worker: resume from the journal checkpoint
# ----------------------------------------------------------------------
def test_daemon_and_worker_killed_resume_from_checkpoint(tmp_path):
    client = ServiceClient(tmp_path)
    job_id = client.submit(KILL_SYSTEM, CampaignConfig())
    job_dir = tmp_path / "jobs" / job_id
    journal = job_dir / JOURNAL_NAME

    victim = fork_daemon(tmp_path, workers=1, poll_interval=0.02)
    try:
        wait_for(lambda: len(journal_outcomes(journal)) >= 3,
                 what="worker checkpoints")
    finally:
        kill_and_reap(victim)
    worker_pid = Sentinel(job_dir / SENTINEL_NAME).read()["pid"]
    os.kill(worker_pid, signal.SIGKILL)
    wait_for(lambda: not pid_alive(worker_pid), what="worker death")

    # the checkpoint state at the moment of the crash
    frozen = valid_prefix(journal)
    tested_before = len(journal_outcomes(journal))
    assert tested_before >= 3

    daemon = drain_in_process(tmp_path, workers=1, poll_interval=0.02)
    assert job_id in daemon._recovery["requeued"]

    result = client.result(job_id)
    assert result["state"] == "done"
    assert result["attempts"] == 2
    assert result["setup"]["cache"] == "hit"  # published by the dead attempt
    # every pre-crash checkpoint was restored, none re-executed ...
    assert result["resumed"] == tested_before
    # ... the journal growing strictly append-only past the old prefix
    assert journal.read_bytes().startswith(frozen)
    assert len(journal_outcomes(journal)) == result["n_points"]
    # and the stitched outcome stream is identical to an untouched run
    assert result["fingerprint"] == PINS[KILL_SYSTEM][0]


# ----------------------------------------------------------------------
# kill -9 just the worker while the daemon lives: requeue + resume
# ----------------------------------------------------------------------
def test_worker_killed_under_live_daemon_is_requeued(tmp_path):
    client = ServiceClient(tmp_path)
    job_id = client.submit(KILL_SYSTEM, CampaignConfig())
    job_dir = tmp_path / "jobs" / job_id
    journal = job_dir / JOURNAL_NAME

    daemon_pid = fork_daemon(tmp_path, workers=1, poll_interval=0.02)
    try:
        wait_for(lambda: len(journal_outcomes(journal)) >= 2,
                 what="worker checkpoints")
        worker_pid = Sentinel(job_dir / SENTINEL_NAME).read()["pid"]
        os.kill(worker_pid, signal.SIGKILL)
        ServiceClient(tmp_path).drain()
        result = client.wait(job_id, timeout=120.0)
    finally:
        try:
            os.kill(daemon_pid, signal.SIGTERM)
        except ProcessLookupError:
            pass
        os.waitpid(daemon_pid, 0)

    assert result["state"] == "done"
    assert result["attempts"] == 2
    assert result["resumed"] > 0
    # the dead attempt published phase 1 before its first injection: the
    # requeued one resumes the journal *and* skips straight to it
    assert result["setup"]["cache"] == "hit"
    assert result["fingerprint"] == PINS[KILL_SYSTEM][0]


# ----------------------------------------------------------------------
# SIGSTOP the worker while the daemon lives: silent past the heartbeat
# timeout means hung, whoever forked it — kill, requeue, resume
# ----------------------------------------------------------------------
def test_wedged_worker_under_live_daemon_is_killed_and_resumed(tmp_path):
    client = ServiceClient(tmp_path)
    job_id = client.submit(KILL_SYSTEM, CampaignConfig())
    job_dir = tmp_path / "jobs" / job_id
    journal = job_dir / JOURNAL_NAME

    # hbase's longest gap between beats is ~0.5s
    daemon_pid = fork_daemon(tmp_path, workers=1, poll_interval=0.02,
                             heartbeat_timeout=3.0)
    stopped = []
    try:
        wait_for(lambda: len(journal_outcomes(journal)) >= 3,
                 what="worker checkpoints")
        worker_pid = Sentinel(job_dir / SENTINEL_NAME).read()["pid"]
        os.kill(worker_pid, signal.SIGSTOP)
        stopped.append(worker_pid)
        tested_before = len(journal_outcomes(journal))
        client.drain()
        result = client.wait(job_id, timeout=120.0)
    finally:
        for pid, sig in [(pid, signal.SIGKILL) for pid in stopped] \
                + [(daemon_pid, signal.SIGTERM)]:
            try:
                os.kill(pid, sig)
            except ProcessLookupError:
                pass
        os.waitpid(daemon_pid, 0)

    assert result["state"] == "done"
    assert result["attempts"] == 2
    assert result["resumed"] >= tested_before
    assert result["fingerprint"] == PINS[KILL_SYSTEM][0]
    assert not pid_alive(worker_pid), "the wedged worker must not wake up"
    counters = client.metrics()["counters"]
    assert counters["service.workers_killed"] == 1
    assert counters["service.jobs_requeued"] == 1


# ----------------------------------------------------------------------
# kill -9 the daemon mid-burst: the successor dispatches what the dead
# daemon would have, in the same order
# ----------------------------------------------------------------------
BURST = [f"{system}-{i}" for i in range(2)
         for system in ("cassandra", "hdfs", "zookeeper")]


def dispatch_order(service_dir):
    return [rec["job_id"]
            for rec in WriteAheadLog(service_dir / "wal.jsonl").replay()
            if rec.get("state") == "running"]


@pytest.mark.parametrize("dispatches_before_kill", [0, 1, 2, 4])
def test_restarted_daemon_continues_the_dispatch_order(
        tmp_path, dispatches_before_kill):
    client = ServiceClient(tmp_path)
    for job_id in BURST:
        client.submit(job_id.split("-")[0], CampaignConfig(), job_id=job_id)

    def forked_that_many():
        # a kill between the RUNNING frame and the fork is a requeue —
        # a second dispatch by design — so wait for the worker's trail
        order = dispatch_order(tmp_path)
        return len(order) >= dispatches_before_kill and (
            tmp_path / "jobs" / order[-1] / SENTINEL_NAME).exists()

    if dispatches_before_kill:  # 0: the uninterrupted reference
        victim = fork_daemon(tmp_path, workers=1, poll_interval=0.02)
        try:
            wait_for(forked_that_many, what="dispatches")
        finally:
            kill_and_reap(victim)
    drain_in_process(tmp_path, workers=1, poll_interval=0.02)

    for job_id in BURST:
        assert client.result(job_id)["attempts"] == 1, job_id
    # lap by lap over the systems, FIFO within each
    assert dispatch_order(tmp_path) == BURST


# ----------------------------------------------------------------------
# lock arbitration
# ----------------------------------------------------------------------
def test_second_daemon_refused_while_first_is_alive(tmp_path):
    first = CampaignDaemon(tmp_path, workers=1)
    first.start()
    try:
        with pytest.raises(DaemonAlreadyRunning):
            CampaignDaemon(tmp_path, workers=1).start()
    finally:
        first.close()
    # a cleanly closed daemon releases the lock
    second = CampaignDaemon(tmp_path, workers=1)
    second.start()
    second.close()


def test_stale_lock_of_dead_daemon_is_taken_over(tmp_path):
    victim = fork_daemon(tmp_path, workers=1, poll_interval=0.02)
    lock = tmp_path / "daemon.lock"
    try:
        wait_for(lock.exists, what="daemon lock")
    finally:
        kill_and_reap(victim)
    assert lock.exists(), "SIGKILL must leave the stale lock behind"

    successor = CampaignDaemon(tmp_path, workers=1)
    successor.start()  # must claim the stale lock, not raise
    try:
        assert Sentinel(lock).read()["daemon_id"] == successor.daemon_id
    finally:
        successor.close()


def test_empty_lock_of_a_daemon_killed_before_its_first_write(tmp_path):
    # SIGKILL between _acquire_lock's O_EXCL create and its first write
    # leaves a zero-byte lock: it reads as stale, and the successor must
    # be able to read what it then claims
    lock = tmp_path / "daemon.lock"
    lock.touch()

    successor = CampaignDaemon(tmp_path, workers=1)
    successor.start()  # raised JSONDecodeError, stranding a claim marker
    try:
        assert Sentinel(lock).read()["daemon_id"] == successor.daemon_id
        assert not list(tmp_path.glob("daemon.lock.claimed-*"))
    finally:
        successor.close()


# ----------------------------------------------------------------------
# queued-work durability and control requests
# ----------------------------------------------------------------------
def test_stop_leaves_queue_durable_for_the_next_daemon(tmp_path):
    client = ServiceClient(tmp_path)
    ids = [client.submit("cassandra", CampaignConfig(), job_id=f"c{i}")
           for i in range(3)]
    daemon = CampaignDaemon(tmp_path, workers=1, poll_interval=0.01,
                            fsync=False)
    client.stop()
    daemon.run()  # exits on the stop request, work still queued/running

    drain_in_process(tmp_path, workers=2, poll_interval=0.01, fsync=False)
    for job_id in ids:
        assert client.result(job_id)["state"] == "done"


def test_malformed_spool_submission_is_rejected_not_wedged(tmp_path):
    client = ServiceClient(tmp_path)
    (tmp_path / "spool" / "broken.json").write_text('{"job_id": "x"}')
    ok = client.submit("cassandra", CampaignConfig())
    drain_in_process(tmp_path, workers=1, poll_interval=0.01, fsync=False)

    assert client.result(ok)["state"] == "done"
    rejected = list((tmp_path / "spool").glob("*.rejected"))
    assert len(rejected) == 1
    assert client.status()["counts"]["failed"] == 0


def test_failed_job_settles_and_wait_fails_fast(tmp_path):
    daemon = CampaignDaemon(tmp_path, workers=1, poll_interval=0.01,
                            fsync=False)
    daemon.start()
    # bypass the client's system validation: the worker must cope too
    daemon.submit(JobSpec(job_id="ghost", system="no-such-system"))
    try:
        wait_for(lambda: not daemon.step(), timeout=60.0,
                 what="daemon going idle")
    finally:
        daemon.close()

    client = ServiceClient(tmp_path)
    assert client.job("ghost")["state"] == "failed"
    result = client.result("ghost")
    assert result["state"] == "failed"
    assert "no-such-system" in result["error"]
    # wait() hands back the failed payload immediately (no hang) ...
    assert client.wait("ghost", timeout=5.0)["state"] == "failed"
    # ... and raises only when a job died with no result to return
    (tmp_path / "jobs" / "ghost" / RESULT_NAME).unlink()
    with pytest.raises(RuntimeError, match="ghost"):
        client.wait("ghost", timeout=5.0)


_DISPATCH_ONE = textwrap.dedent("""
    import json, sys
    from repro.service import CampaignDaemon
    from repro.service.jobs import JobSpec

    daemon = CampaignDaemon(sys.argv[1], workers=1, poll_interval=0.01,
                            fsync=False)
    spec = JobSpec(job_id="spooled-hdfs", system="hdfs")
    (daemon.layout.spool / "spooled-hdfs.json").write_text(
        json.dumps(spec.to_dict()))
    before = "repro.systems.hdfs.system" in sys.modules
    daemon.start()
    try:
        while not daemon._procs:
            daemon.step()
        after = "repro.systems.hdfs.system" in sys.modules
    finally:
        for proc in daemon._procs.values():
            proc.kill()
            proc.join()
        daemon.close()
    print(json.dumps([before, after]))
""")


def test_the_daemon_imports_a_jobs_system_before_forking_its_worker(
        tmp_path):
    # a fresh process that never imported the systems (a spooled file, not
    # ServiceClient.submit): the forked worker inherits the import
    done = subprocess.run([sys.executable, "-c", _DISPATCH_ONE, str(tmp_path)],
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == [False, True]
