"""The long-lived campaign daemon: durable queue, fleet, self-recovery.

:class:`CampaignDaemon` owns one service directory.  Its whole design
follows the thesis of the paper it serves — assume *this process* can be
SIGKILL'd at any instruction — so every state change is one durable WAL
frame before its side effect, workers are forked as independent
processes that outlive the daemon, and startup is a recovery pass:

1. take the service lock (heartbeat sentinel; a stale lock is claimed
   atomically, a fresh one means another daemon is alive),
2. replay the WAL (torn tail truncated) into the job table,
3. for every job the log says is ``running``: a finished ``result.json``
   settles it; a live worker (fresh heartbeat + live pid) is
   *reattached* — watched, not restarted; a dead or hung worker is
   claimed and the job requeued — its next attempt resumes from the
   campaign journal's last checkpoint, re-executing nothing before it,
4. re-enqueue ``queued`` jobs, ingest the spool, resume dispatching.

The daemon then loops: ingest spool submissions, honor drain/stop
requests, poll workers, dispatch queued jobs over the worker slots
(per-system fairness with work stealing — :mod:`repro.service.scheduler`),
beat its own lock sentinel, and atomically rewrite ``status.json`` for
the admin APIs in :mod:`repro.service.admin`.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from repro.core.pipeline import source_digest
from repro.obs import MetricsRegistry, Tracer
from repro.service.jobs import (
    DONE,
    FAILED,
    QUEUED,
    RUNNING,
    JobRecord,
    JobSpec,
    JobTable,
    ServiceLayout,
)
from repro.service.scheduler import FleetScheduler
from repro.service.sentinel import ALIVE, MISSING, STALE, Sentinel, pid_alive
from repro.service.wal import WriteAheadLog, atomic_write_json, read_json
from repro.service.worker import RESULT_NAME, SENTINEL_NAME, worker_main

#: control-file names a client drops into <root>/control/
DRAIN_REQUEST = "drain.json"
STOP_REQUEST = "stop.json"


class DaemonAlreadyRunning(RuntimeError):
    """Another daemon holds a fresh lock on this service directory."""


class CampaignDaemon:
    """One campaign service instance over one service directory.

    Args:
        service_dir: the service root (created if missing).
        workers: worker slots — campaigns running concurrently.
        heartbeat_timeout: seconds without a heartbeat after which a
            worker (or a previous daemon) is presumed dead; must be
            generous relative to the longest gap between a worker's
            beats (one injection run, one analysis pass).
        poll_interval: sleep between scheduling ticks in :meth:`run`.
        max_attempts: dispatches per job before it is failed for good.
        fsync: fsync every WAL frame (the durable default; tests that
            hammer the queue turn it off).
    """

    def __init__(
        self,
        service_dir: Union[str, Path],
        workers: int = 2,
        heartbeat_timeout: float = 30.0,
        poll_interval: float = 0.2,
        max_attempts: int = 3,
        fsync: bool = True,
    ):
        self.layout = ServiceLayout(service_dir)
        self.layout.ensure()
        self.workers = workers
        self.heartbeat_timeout = heartbeat_timeout
        self.poll_interval = poll_interval
        self.max_attempts = max_attempts
        self.daemon_id = f"daemon-{os.getpid()}"
        self.wal = WriteAheadLog(self.layout.wal, fsync=fsync)
        self.table = JobTable()
        self.scheduler = FleetScheduler(workers)
        self.metrics = MetricsRegistry()
        self.tracer = Tracer(max_spans=10_000, clock=time.time)
        self._lock = Sentinel(self.layout.lock, owner=self.daemon_id)
        self._procs: Dict[str, multiprocessing.process.BaseProcess] = {}
        self._slot_of: Dict[str, int] = {}
        self._reattached: Dict[str, int] = {}
        self._recovery: Dict[str, Any] = {}
        self._draining = False
        self._stopping = False
        self._started = False
        self.started_at = 0.0

    # ------------------------------------------------------------------
    # startup & recovery
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Acquire the lock, replay the WAL, recover, start accepting."""
        if self._started:
            return
        self._acquire_lock()
        self.started_at = time.time()
        # sweep what can never be hit again: entries of another code
        # digest, a killed publisher's .tmp (a surviving worker that loses
        # its .tmp mid-publish just skips the publish)
        current = source_digest()[:16]
        for path in self.layout.setup_cache.iterdir():
            if not (path.name.startswith(current) and path.suffix == ".pkl"):
                path.unlink(missing_ok=True)
        records = self.wal.replay()
        self.wal.open_append()
        self.table = JobTable.from_records(records)
        with self.tracer.span("daemon.recover", wal_frames=len(records)):
            self._recover(wal_frames=len(records))
        self._ingest_spool()
        self._started = True
        self._write_status()

    def _acquire_lock(self) -> None:
        status = self._lock.status(self.heartbeat_timeout)
        if status == ALIVE:
            holder = self._lock.read() or {}
            raise DaemonAlreadyRunning(
                f"{self.layout.lock}: daemon pid {holder.get('pid')} is "
                f"alive (heartbeat "
                f"{time.time() - holder.get('heartbeat_at', 0):.1f}s ago)"
            )
        if status == STALE:
            # a previous daemon died without cleanup: atomic takeover —
            # of two racers, exactly one gets the rename
            if self._lock.claim(self.daemon_id) is None:
                raise DaemonAlreadyRunning(
                    f"{self.layout.lock}: lost the takeover race"
                )
            self._lock.release_claim(self.daemon_id)
        # the lock file is now absent; O_EXCL creation arbitrates the
        # last window (two daemons starting on a clean directory)
        try:
            fd = os.open(self.layout.lock, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            os.close(fd)
        except FileExistsError:
            raise DaemonAlreadyRunning(
                f"{self.layout.lock}: another daemon won the startup race"
            ) from None
        self._lock.write(daemon_id=self.daemon_id, workers=self.workers)

    def _recover(self, wal_frames: int) -> None:
        report: Dict[str, Any] = {
            "at": time.time(),
            "daemon_id": self.daemon_id,
            "wal_frames": wal_frames,
            "torn_frames_truncated": self.wal.torn_frames,
            "reattached": [],
            "requeued": [],
            "settled": [],
            "failed": [],
        }
        for job in self.table.in_state(RUNNING):
            job_dir = self.layout.job_dir(job.job_id)
            result = read_json(job_dir / RESULT_NAME)
            if result is not None and result.get("attempts") == job.attempts:
                # the worker finished while no daemon was watching
                self._settle(job, result)
                report["settled"].append(job.job_id)
                continue
            sentinel = Sentinel(job_dir / SENTINEL_NAME)
            status = sentinel.status(self.heartbeat_timeout)
            if status == ALIVE:
                data = sentinel.read() or {}
                self._reattached[job.job_id] = data.get("pid", 0)
                self.metrics.counter("service.jobs_reattached").inc()
                self.tracer.event("daemon.reattach", job_id=job.job_id,
                                  pid=data.get("pid", 0))
                report["reattached"].append(job.job_id)
                continue
            if status == STALE:
                claimed = sentinel.claim(self.daemon_id)
                if claimed is None:
                    # lost a takeover race — someone else owns this job now
                    continue
                pid = claimed.get("pid", 0)
                if pid_alive(pid) and pid != os.getpid():
                    # alive but silent: a hung worker; reclaim the slot
                    try:
                        os.kill(pid, signal.SIGKILL)
                        self.metrics.counter("service.workers_killed").inc()
                    except OSError:  # pragma: no cover - raced its death
                        pass
                sentinel.release_claim(self.daemon_id)
            requeued = self._requeue(job, reason=f"worker {status} at recovery")
            report[("requeued" if requeued else "failed")].append(job.job_id)
        for job in self.table.in_state(QUEUED):
            # _requeue already enqueued its jobs; adding them again here
            # would double-dispatch them after they finish
            if job.job_id not in report["requeued"]:
                self.scheduler.add(job.job_id, job.system)
        self._recovery = report

    # ------------------------------------------------------------------
    # the WAL is the source of truth: append first, then apply
    # ------------------------------------------------------------------
    def _append(self, rec: Dict[str, Any]) -> None:
        self.wal.append(rec)
        self.table.apply(rec)

    # ------------------------------------------------------------------
    # submissions
    # ------------------------------------------------------------------
    def submit(self, spec: JobSpec) -> str:
        """Accept a job directly (in-process embedding); returns its id."""
        if spec.job_id in self.table.jobs:
            return spec.job_id
        self._append(JobTable.submit_record(spec))
        self.scheduler.add(spec.job_id, spec.system)
        self.metrics.counter("service.jobs_submitted").inc()
        self.tracer.event("daemon.submit", job_id=spec.job_id,
                          system=spec.system)
        return spec.job_id

    def _ingest_spool(self) -> int:
        """Move spool submissions into the WAL (idempotent, crash-safe).

        The spool file is deleted only after its WAL frame is durable: a
        kill in between replays the submit, which the job table dedups.
        """
        ingested = 0
        for path in sorted(self.layout.spool.glob("*.json")):
            data = read_json(path)
            if data is None:  # pragma: no cover - raced another unlink
                continue
            try:
                spec = JobSpec.from_dict(data)
            except (KeyError, TypeError, ValueError) as exc:
                # a malformed submission must not wedge the queue
                path.rename(path.with_suffix(".rejected"))
                self.tracer.event("daemon.reject", path=str(path),
                                  error=str(exc))
                continue
            self.submit(spec)
            path.unlink()
            ingested += 1
        return ingested

    # ------------------------------------------------------------------
    # control files
    # ------------------------------------------------------------------
    def _read_control(self) -> None:
        if (self.layout.control / DRAIN_REQUEST).exists():
            if not self._draining:
                self.tracer.event("daemon.drain")
            self._draining = True
        if (self.layout.control / STOP_REQUEST).exists():
            if not self._stopping:
                self.tracer.event("daemon.stop")
            self._stopping = True

    def _clear_control(self, name: str) -> None:
        try:
            (self.layout.control / name).unlink()
        except FileNotFoundError:
            pass

    # ------------------------------------------------------------------
    # worker lifecycle
    # ------------------------------------------------------------------
    def _settle(self, job: JobRecord, result: Dict[str, Any]) -> None:
        """Record a finished worker's result as the job's final state."""
        state = DONE if result.get("state") == "done" else FAILED
        self._append(JobTable.transition_record(
            job.job_id, state, reason=result.get("error") or ""))
        wall = result.get("wall_seconds")
        if wall is not None:
            self.metrics.histogram("service.job_wall_seconds").observe(wall)
        cache = (result.get("setup") or {}).get("cache")
        if cache in ("hit", "miss"):
            self.metrics.counter(
                "service.setup_cache_hits" if cache == "hit"
                else "service.setup_cache_misses").inc()
        self.metrics.counter(
            "service.jobs_completed" if state == DONE
            else "service.jobs_failed").inc()
        self.tracer.event("daemon.settle", job_id=job.job_id, state=state)
        self._reap(job.job_id)

    def _reap(self, job_id: str) -> None:
        proc = self._procs.pop(job_id, None)
        if proc is not None:
            proc.join(timeout=1.0)
        self._slot_of.pop(job_id, None)
        self._reattached.pop(job_id, None)

    def _requeue(self, job: JobRecord, reason: str) -> bool:
        """Back to the queue (True) or out of attempts (False)."""
        self._reap(job.job_id)
        job_dir = self.layout.job_dir(job.job_id)
        # a stale result.json from the dead attempt must not settle the
        # next one; the journal stays — it is the resume checkpoint
        try:
            (job_dir / RESULT_NAME).unlink()
        except FileNotFoundError:
            pass
        Sentinel(job_dir / SENTINEL_NAME).clear()
        if job.attempts >= self.max_attempts:
            self._append(JobTable.transition_record(
                job.job_id, FAILED,
                reason=f"gave up after {job.attempts} attempts ({reason})"))
            self.metrics.counter("service.jobs_failed").inc()
            return False
        self._append(JobTable.transition_record(
            job.job_id, QUEUED, reason=reason))
        self.scheduler.add(job.job_id, job.system)
        self.metrics.counter("service.jobs_requeued").inc()
        self.tracer.event("daemon.requeue", job_id=job.job_id, reason=reason)
        return True

    def _poll_workers(self) -> None:
        for job in self.table.in_state(RUNNING):
            job_dir = self.layout.job_dir(job.job_id)
            result = read_json(job_dir / RESULT_NAME)
            if result is not None and result.get("attempts") == job.attempts:
                self._settle(job, result)
                continue
            proc = self._procs.get(job.job_id)
            if proc is not None:
                if proc.is_alive():
                    continue
                # our own child exited without a result: it was killed
                self._requeue(job, reason="worker exited without result")
                continue
            # reattached worker (not our child): judge by its sentinel
            status = Sentinel(job_dir / SENTINEL_NAME).status(
                self.heartbeat_timeout)
            if status == ALIVE:
                continue
            if status == STALE:
                data = Sentinel(job_dir / SENTINEL_NAME).read() or {}
                pid = data.get("pid", 0)
                if pid_alive(pid) and pid != os.getpid():
                    try:
                        os.kill(pid, signal.SIGKILL)
                        self.metrics.counter("service.workers_killed").inc()
                    except OSError:  # pragma: no cover
                        pass
            self._requeue(job, reason=f"reattached worker went {status}")

    def _dispatch(self) -> None:
        busy = set(self._slot_of.values())
        for slot in range(self.workers):
            if slot in busy or len(self._slot_of) + len(self._reattached) \
                    >= self.workers:
                continue
            while True:
                pick = self.scheduler.next_job(slot)
                if pick is None or self.table.jobs[pick[0]].state == QUEUED:
                    break
                # a stale scheduler entry: the WAL's state wins — a job
                # that is running/done/failed must never launch again
            if pick is None:
                break
            job_id, system, stolen = pick
            job = self.table.jobs[job_id]
            job_dir = self.layout.job_dir(job_id)
            job_dir.mkdir(parents=True, exist_ok=True)
            try:
                (job_dir / RESULT_NAME).unlink()
            except FileNotFoundError:
                pass
            # the transition is durable *before* the fork: a kill in
            # between recovers as "running, no sentinel, no result" and
            # simply requeues — never two workers on one journal
            self._append(JobTable.transition_record(
                job_id, RUNNING, slot=slot, stolen=stolen))
            context = multiprocessing.get_context("fork")
            proc = context.Process(
                target=worker_main,
                args=(job.spec.to_dict(), str(job_dir), job.attempts,
                      str(self.layout.setup_cache)),
                daemon=False,  # must outlive a SIGKILL'd daemon
            )
            proc.start()
            job.pid = proc.pid or 0
            self._procs[job_id] = proc
            self._slot_of[job_id] = slot
            self.metrics.counter("service.jobs_dispatched").inc()
            if stolen:
                self.metrics.counter("service.jobs_stolen").inc()
            self.tracer.event("daemon.dispatch", job_id=job_id,
                              system=system, slot=slot, pid=job.pid,
                              stolen=stolen, attempt=job.attempts)

    # ------------------------------------------------------------------
    # the loop
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """One scheduling tick; returns True while there is work left."""
        assert self._started, "call start() first"
        self._read_control()
        self._ingest_spool()
        self._poll_workers()
        if not self._stopping:
            self._dispatch()
        self._lock.beat()
        self._write_status()
        return bool(self.scheduler.pending()
                    or self.table.in_state(RUNNING))

    def run(self) -> None:
        """Serve until a stop request, or a drain request empties us."""
        self.start()
        try:
            while True:
                busy = self.step()
                if self._stopping:
                    self._clear_control(STOP_REQUEST)
                    break
                if self._draining and not busy:
                    self._clear_control(DRAIN_REQUEST)
                    break
                time.sleep(self.poll_interval)
        finally:
            self.close()

    def close(self) -> None:
        """Clean shutdown: workers keep running, the lock is released."""
        if not self._started:
            return
        self._write_status(final=True)
        self.wal.close()
        holder = self._lock.read() or {}
        if holder.get("daemon_id") == self.daemon_id:
            self._lock.clear()
        self._started = False

    # ------------------------------------------------------------------
    # status snapshot (the admin APIs' data source)
    # ------------------------------------------------------------------
    def status_payload(self) -> Dict[str, Any]:
        return {
            "daemon": {
                "daemon_id": self.daemon_id,
                "pid": os.getpid(),
                "workers": self.workers,
                "started_at": self.started_at,
                "heartbeat_timeout": self.heartbeat_timeout,
                "draining": self._draining,
                "stopping": self._stopping,
            },
            "counts": self.table.counts(),
            "jobs": {job_id: self.table.jobs[job_id].summary()
                     for job_id in self.table.order},
            "queue": self.scheduler.snapshot(),
            "running": sorted(self._slot_of),
            "reattached": sorted(self._reattached),
            "recovery": self._recovery,
            "metrics": self.metrics.snapshot(),
            "updated_at": time.time(),
        }

    def _write_status(self, final: bool = False) -> None:
        payload = self.status_payload()
        if final:
            payload["daemon"]["exited"] = True
        atomic_write_json(self.layout.status, payload, fsync=False)
