"""Heartbeat sentinels: liveness verdicts and single-winner takeover.

The sentinel answers two questions the recovery pass depends on: "is the
process behind this job alive *and* making progress?" (both the pid and
the heartbeat must check out) and "which of N concurrent claimants gets
to requeue it?" (exactly one — arbitration by atomic rename).
"""

import multiprocessing
import os
import time

from repro.service.sentinel import ALIVE, MISSING, STALE, Sentinel, pid_alive


def test_missing_until_written(tmp_path):
    sentinel = Sentinel(tmp_path / "s.json")
    assert sentinel.status(10.0) == MISSING
    sentinel.write(job_id="j1")
    assert sentinel.status(10.0) == ALIVE


def test_beat_refreshes_and_extends(tmp_path):
    sentinel = Sentinel(tmp_path / "s.json", owner="w1")
    sentinel.write(phase="starting")
    sentinel.beat(phase="campaign", checkpoint=3)
    data = sentinel.read()
    assert data["phase"] == "campaign"
    assert data["checkpoint"] == 3
    assert data["pid"] == os.getpid()
    assert sentinel.status(10.0) == ALIVE


def test_old_heartbeat_is_stale_even_if_pid_lives(tmp_path):
    """A live-but-silent worker is hung, not healthy."""
    sentinel = Sentinel(tmp_path / "s.json")
    sentinel.write()
    data = sentinel.read()
    data["heartbeat_at"] = time.time() - 60.0
    from repro.durable import atomic_write_json
    atomic_write_json(sentinel.path, data)
    assert pid_alive(os.getpid())
    assert sentinel.status(5.0) == STALE


def test_dead_pid_is_stale_even_with_fresh_heartbeat(tmp_path):
    """Kill right after a beat: the fresh file must not read as alive."""
    proc = multiprocessing.get_context("fork").Process(target=time.sleep,
                                                       args=(0,))
    proc.start()
    proc.join()  # a pid guaranteed dead
    sentinel = Sentinel(tmp_path / "s.json")
    sentinel.write()
    data = sentinel.read()
    data["pid"] = proc.pid
    from repro.durable import atomic_write_json
    atomic_write_json(sentinel.path, data)
    assert sentinel.status(60.0) == STALE


def test_clear_is_idempotent(tmp_path):
    sentinel = Sentinel(tmp_path / "s.json")
    sentinel.write()
    sentinel.clear()
    sentinel.clear()
    assert sentinel.status(10.0) == MISSING


# ----------------------------------------------------------------------
# takeover arbitration
# ----------------------------------------------------------------------
def test_second_claimer_loses(tmp_path):
    sentinel = Sentinel(tmp_path / "s.json")
    sentinel.write(job_id="j1")
    assert sentinel.claim("daemon-a") is not None
    assert sentinel.claim("daemon-b") is None
    sentinel.release_claim("daemon-a")
    assert sentinel.status(10.0) == MISSING


def _race_claim(path, name, barrier, queue):
    barrier.wait()
    claimed = Sentinel(path).claim(name)
    queue.put((name, claimed is not None))


def test_concurrent_claim_exactly_one_winner(tmp_path):
    """The double-reattach race: two daemons, one job, one winner."""
    context = multiprocessing.get_context("fork")
    for round_no in range(5):
        path = tmp_path / f"s{round_no}.json"
        Sentinel(path).write(job_id="contested")
        barrier = context.Barrier(2)
        queue = context.Queue()
        procs = [context.Process(target=_race_claim,
                                 args=(str(path), name, barrier, queue))
                 for name in ("daemon-a", "daemon-b")]
        for proc in procs:
            proc.start()
        results = dict(queue.get() for _ in procs)
        for proc in procs:
            proc.join()
        assert sorted(results) == ["daemon-a", "daemon-b"]
        assert sum(results.values()) == 1, f"round {round_no}: {results}"
