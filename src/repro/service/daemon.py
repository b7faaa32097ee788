"""The long-lived campaign daemon: durable queue, workers, self-recovery.

:class:`CampaignDaemon` owns one service directory.  Its whole design
follows the thesis of the paper it serves — assume *this process* can be
SIGKILL'd at any instruction — so every state change is one durable WAL
frame before its side effect, workers are forked as independent
processes that outlive the daemon, and startup is a recovery pass:

1. take the service lock (heartbeat sentinel; a stale lock is claimed
   atomically, a fresh one means another daemon is alive),
2. replay the WAL (torn tail truncated) into the job table — which *is*
   the queue (:meth:`JobTable.next_job`), so nothing is refilled,
3. judge every job the log says is ``running`` (:meth:`CampaignDaemon.
   _judge`, the same call every later tick makes): a finished
   ``result.json`` settles it; a live worker (fresh heartbeat + live
   pid) is *reattached* — watched, not restarted; a dead or hung worker
   is claimed, killed if need be, and the job requeued — its next
   attempt resumes from the campaign journal's last checkpoint,
4. ingest the spool, resume dispatching.

The daemon then loops: ingest spool submissions, honor drain/stop
requests, judge running jobs, dispatch queued ones while fewer than
``workers`` run, beat its own lock sentinel once a quarter of
:data:`HEARTBEAT_TIMEOUT` has passed since the last beat, and atomically
rewrite ``status.json`` for the admin APIs in
:mod:`repro.service.admin` when its content has changed — a tick that
changes nothing writes nothing.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import multiprocessing
import os
import signal
import time
from pathlib import Path
from typing import Any, Dict, Optional, Union

from repro.core.pipeline import source_digest
from repro.durable import WriteAheadLog, atomic_write_json, read_json
from repro.obs import MetricsRegistry
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
from repro.service.sentinel import ALIVE, MISSING, STALE, Sentinel, pid_alive
from repro.service.worker import RESULT_NAME, SENTINEL_NAME, worker_main
from repro.systems import get_system

#: control-file names a client drops into <root>/control/
DRAIN_REQUEST = "drain.json"
STOP_REQUEST = "stop.json"

#: the timeout every reader judges the daemon's lock under (a successor
#: daemon, ``status``), and the default ``heartbeat_timeout``
HEARTBEAT_TIMEOUT = 30.0


class DaemonAlreadyRunning(RuntimeError):
    """Another daemon holds a fresh lock on this service directory."""


class CampaignDaemon:
    """One campaign service instance over one service directory.

    Args:
        service_dir: the service root (created if missing).
        workers: campaigns running concurrently.
        heartbeat_timeout: seconds without a heartbeat after which a
            worker — inherited or forked by this daemon — is presumed
            dead or hung, and killed; must exceed the longest gap
            between a worker's beats (one injection run, one analysis
            pass).  A previous daemon's lock is judged under
            :data:`HEARTBEAT_TIMEOUT`, not under this.
        poll_interval: sleep between scheduling ticks in :meth:`run`.
        max_attempts: dispatches per job before it is failed for good.
        fsync: fsync every WAL frame (the durable default; tests that
            hammer the queue turn it off).
    """

    def __init__(
        self,
        service_dir: Union[str, Path],
        workers: int = 2,
        heartbeat_timeout: float = HEARTBEAT_TIMEOUT,
        poll_interval: float = 0.2,
        max_attempts: int = 3,
        fsync: bool = True,
    ):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.layout = ServiceLayout(service_dir)
        self.layout.ensure()
        self.workers = workers
        self.heartbeat_timeout = heartbeat_timeout
        self.poll_interval = poll_interval
        self.max_attempts = max_attempts
        self.daemon_id = f"daemon-{os.getpid()}"
        self.wal = WriteAheadLog(self.layout.wal, fsync=fsync)
        self.table = JobTable()
        self.metrics = MetricsRegistry()
        self._lock = Sentinel(self.layout.lock, owner=self.daemon_id)
        #: workers this daemon forked (an inherited one has no entry)
        self._procs: Dict[str, multiprocessing.process.BaseProcess] = {}
        self._recovery: Dict[str, Any] = {}
        self._draining = False
        self._stopping = False
        self._started = False
        self.started_at = 0.0
        #: monotonic time of the lock's last beat
        self._beat_at = 0.0
        #: sha256 of the last ``status.json`` written, without its
        #: ``updated_at``
        self._status_digest = b""

    @property
    def scheduler(self) -> JobTable:
        """The job table under the name ``bench/probes.py`` reads
        (``daemon.scheduler.pending()``); ``bench/`` is frozen outside a
        ``benchmark`` PR, and the next one drops this alias."""
        return self.table

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
        self._recover(wal_frames=len(records))
        self._ingest_spool()
        self._started = True
        self._write_status()

    def _acquire_lock(self) -> None:
        status = self._lock.status(HEARTBEAT_TIMEOUT)
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
        self._beat_at = time.monotonic()

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
            # left running: its worker outlived the previous daemon
            report[self._judge(job) or "reattached"].append(job.job_id)
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
        self.metrics.counter("service.jobs_submitted").inc()
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
            except (KeyError, TypeError, ValueError):
                # a malformed submission must not wedge the queue
                path.rename(path.with_suffix(".rejected"))
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
            self._draining = True
        if (self.layout.control / STOP_REQUEST).exists():
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
        self._reap(job.job_id)

    def _reap(self, job_id: str) -> None:
        proc = self._procs.pop(job_id, None)
        if proc is not None:
            proc.join(timeout=1.0)

    def _requeue(self, job: JobRecord, reason: str) -> str:
        """Back to the queue (``requeued``) or out of attempts (``failed``)."""
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
            return "failed"
        self._append(JobTable.transition_record(
            job.job_id, QUEUED, reason=reason))
        self.metrics.counter("service.jobs_requeued").inc()
        return "requeued"

    def _judge(self, job: JobRecord) -> Optional[str]:
        """Decide one RUNNING job's fate — at recovery and on every tick.

        Returns ``settled``, ``requeued`` or ``failed`` (out of
        attempts), or ``None`` when the job is left running.
        """
        job_dir = self.layout.job_dir(job.job_id)
        result = read_json(job_dir / RESULT_NAME)
        if result is not None and result.get("attempts") == job.attempts:
            self._settle(job, result)
            return "settled"
        proc = self._procs.get(job.job_id)
        if proc is not None and not proc.is_alive():
            # our own child exited without a result: it was killed
            return self._requeue(job, reason="worker exited without result")
        sentinel = Sentinel(job_dir / SENTINEL_NAME)
        status = sentinel.status(self.heartbeat_timeout)
        if status == ALIVE:
            # for status.json; an attempt's pid never changes, read it once
            job.pid = job.pid or (sentinel.read() or {}).get("pid", 0)
            return None
        if status == MISSING and proc is not None:
            return None  # our live child, forked but not at its first beat
        if status == STALE:
            claimed = sentinel.claim(self.daemon_id)
            if claimed is None:
                # lost a takeover race — someone else owns this job now
                return None
            pid = claimed.get("pid", 0)
            if pid_alive(pid) and pid != os.getpid():
                # alive but silent: hung — it must not write the journal
                # beside the next attempt
                try:
                    os.kill(pid, signal.SIGKILL)
                    self.metrics.counter("service.workers_killed").inc()
                except OSError:  # pragma: no cover - raced its death
                    pass
            sentinel.release_claim(self.daemon_id)
        return self._requeue(job, reason=f"worker {status}")

    def _dispatch(self) -> None:
        while len(self.table.in_state(RUNNING)) < self.workers:
            job = self.table.next_job()
            if job is None:
                return
            job_id = job.job_id
            job_dir = self.layout.job_dir(job_id)
            job_dir.mkdir(parents=True, exist_ok=True)
            try:
                (job_dir / RESULT_NAME).unlink()
            except FileNotFoundError:
                pass
            # the transition is durable *before* the fork: a kill in
            # between recovers as "running, no sentinel, no result" and
            # simply requeues — never two workers on one journal
            self._append(JobTable.transition_record(job_id, RUNNING))
            # imported once here, not by every forked worker (an unknown
            # system fails in the worker, which says why)
            with contextlib.suppress(KeyError):
                get_system(job.spec.system)
            context = multiprocessing.get_context("fork")
            proc = context.Process(
                target=worker_main,
                args=(job.spec.to_dict(), str(job_dir), job.attempts,
                      str(self.layout.setup_cache)),
                daemon=False,  # must outlive a SIGKILL'd daemon
            )
            proc.start()
            self._procs[job_id] = proc
            self.metrics.counter("service.jobs_dispatched").inc()

    # ------------------------------------------------------------------
    # the loop
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """One scheduling tick; returns True while there is work left."""
        assert self._started, "call start() first"
        self._read_control()
        self._ingest_spool()
        for job in self.table.in_state(RUNNING):
            self._judge(job)
        if not self._stopping:
            self._dispatch()
        now = time.monotonic()
        if now - self._beat_at >= HEARTBEAT_TIMEOUT / 4:
            self._lock.beat()
            self._beat_at = now
        self._write_status()
        return bool(self.table.in_state(QUEUED, RUNNING))

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
        """``status.json``'s content, apart from its ``updated_at``."""
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
            "queue": self.table.queue(),
            "recovery": self._recovery,
            "metrics": self.metrics.snapshot(),
        }

    def _write_status(self, final: bool = False) -> None:
        """Rewrite ``status.json`` if anything but the time has changed."""
        content = self.status_payload()
        if final:
            content["daemon"]["exited"] = True
        digest = hashlib.sha256(
            json.dumps(content, sort_keys=True).encode("utf-8")).digest()
        if digest == self._status_digest:
            return
        self._status_digest = digest
        atomic_write_json(self.layout.status,
                          {**content, "updated_at": time.time()}, fsync=False)
