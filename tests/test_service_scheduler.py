"""Scheduling: the queue is the job table, the next job a function of it.

Dispatch order is part of the service's crash story — the table is a
fold over the WAL and :meth:`JobTable.next_job` reads nothing else, so
the same log must always produce the same schedule, from any prefix.
(The same claim against a real daemon killed mid-burst is
``test_restarted_daemon_continues_the_dispatch_order`` in
``tests/test_service_daemon.py``.)
"""

import pytest

from repro.durable import WriteAheadLog
from repro.service import CampaignDaemon
from repro.service.jobs import DONE, QUEUED, RUNNING, JobSpec, JobTable

SIX = ("cassandra", "hbase", "hdfs", "kube", "yarn", "zookeeper")


def submit(table, job_id, system):
    table.apply(JobTable.submit_record(JobSpec(job_id=job_id, system=system)))


def run_next(table, log=None):
    """Dispatch and finish the table's next job; returns its id."""
    job = table.next_job()
    if job is None:
        return None
    for state in (RUNNING, DONE):
        rec = JobTable.transition_record(job.job_id, state)
        table.apply(rec)
        if log is not None:
            log.append(rec)
    return job.job_id


def drain(table):
    return list(iter(lambda: run_next(table), None))


def test_rejects_zero_workers(tmp_path):
    # nothing would ever dispatch: refuse before touching the directory
    with pytest.raises(ValueError, match="workers"):
        CampaignDaemon(tmp_path / "svc", workers=0)
    assert not (tmp_path / "svc").exists()


def test_per_system_fair_dispatch_interleaves():
    """Three yarn jobs queued first must not starve the other systems."""
    table = JobTable()
    for i in range(3):
        submit(table, f"y{i}", "yarn")
    submit(table, "c0", "cassandra")
    submit(table, "h0", "hdfs")
    assert drain(table) == ["c0", "h0", "y0", "y1", "y2"]


def test_six_systems_interleave_lap_by_lap():
    table = JobTable()
    for system in reversed(SIX):  # submitted system by system, z first
        for i in range(3):
            submit(table, f"{system}-{i}", system)
    assert drain(table) == [f"{system}-{lap}"
                            for lap in range(3) for system in SIX]


def test_least_dispatched_system_goes_first_across_bursts():
    # fairness counts what the WAL counts: yarn's finished jobs are
    # dispatches too, so a later burst serves the other system first
    table = JobTable()
    submit(table, "y0", "yarn")
    submit(table, "y1", "yarn")
    assert drain(table) == ["y0", "y1"]
    submit(table, "y2", "yarn")
    submit(table, "z0", "zookeeper")
    submit(table, "z1", "zookeeper")
    assert drain(table) == ["z0", "z1", "y2"]


def test_fifo_within_a_system():
    table = JobTable()
    for i in range(4):
        submit(table, f"j{i}", "yarn")
    assert drain(table) == ["j0", "j1", "j2", "j3"]


def test_requeued_job_keeps_its_place_in_its_system():
    table = JobTable()
    for i in range(3):
        submit(table, f"j{i}", "yarn")
    table.apply(JobTable.transition_record("j0", RUNNING))
    table.apply(JobTable.transition_record("j0", QUEUED, reason="worker stale"))
    # the checkpointed job resumes before anything younger starts
    assert table.next_job().job_id == "j0"
    assert table.next_job().attempts == 1


def test_deterministic_rebuild():
    """A table folded from any WAL prefix continues the same schedule."""
    burst = ["yarn", "hdfs", "yarn", "cassandra", "hdfs", "yarn"]
    log = [JobTable.submit_record(JobSpec(job_id=f"j{i}", system=system))
           for i, system in enumerate(burst)]
    table = JobTable.from_records(log)
    order = list(iter(lambda: run_next(table, log), None))
    assert order == ["j3", "j1", "j0", "j4", "j2", "j5"]

    for cut in range(len(burst), len(log) + 1):
        rebuilt = JobTable.from_records(log[:cut])
        running = rebuilt.in_state(RUNNING)  # killed between two frames
        for job in running:
            rebuilt.apply(JobTable.transition_record(job.job_id, DONE))
        dispatched = [rec["job_id"] for rec in log[:cut]
                      if rec.get("state") == RUNNING]
        assert dispatched + drain(rebuilt) == order, cut


def test_snapshot_shape():
    table = JobTable()
    submit(table, "j0", "yarn")
    submit(table, "j1", "hdfs")
    submit(table, "j2", "yarn")
    table.apply(JobTable.transition_record("j0", RUNNING))
    assert table.pending() == 2
    assert table.queue() == {"pending": 2,
                             "per_system": {"hdfs": 1, "yarn": 1}}
    assert table.next_job().job_id == "j1"
    assert JobTable().next_job() is None and JobTable().pending() == 0


def test_wal_written_with_slot_and_stolen_extras_replays(tmp_path):
    # RUNNING frames once carried scheduler placement; a service
    # directory written then must fold into the same table now
    spec = JobSpec(job_id="j0", system="yarn", submitted_at=1.0)
    old = [
        {"type": "submit", "job": spec.to_dict()},
        {"type": "transition", "job_id": "j0", "state": "running",
         "at": 2.0, "extra": {"slot": 1, "stolen": True}},
        {"type": "transition", "job_id": "j0", "state": "queued",
         "at": 3.0, "extra": {"reason": "worker stale at recovery"}},
        {"type": "transition", "job_id": "j0", "state": "running",
         "at": 4.0, "extra": {"slot": 0, "stolen": False}},
    ]
    new = [dict(rec, extra={}) if rec.get("state") == "running" else rec
           for rec in old]
    path = tmp_path / "wal.jsonl"
    with WriteAheadLog(path, fsync=False) as wal:
        for rec in old:
            wal.append(rec)
    replayed = JobTable.from_records(WriteAheadLog(path).replay())
    assert replayed.jobs == JobTable.from_records(new).jobs
    job = replayed.jobs["j0"]
    assert (job.state, job.attempts, job.reason) == ("running", 2, "")
    assert job.summary() == {
        "job_id": "j0", "system": "yarn", "state": "running", "attempts": 2,
        "pid": 0, "reason": "", "submitted_at": 1.0}
