"""Admin/status APIs and the client side of the campaign service.

Everything here reads (and submits through) the service *directory* —
never the daemon process — so every call works whether the daemon is
alive, SIGKILL'd, or restarting: ``status`` reports a dead daemon as
dead instead of hanging on a socket, and a submission spooled while no
daemon runs is ingested by the next one to start.

* :func:`service_status` / :func:`queue_snapshot` /
  :func:`recovery_report` / :func:`metrics_snapshot` — the four
  admin views, each a plain JSON-able dict,
* :class:`ServiceClient` — submit / attach / wait / result / drain /
  stop against one service directory (``repro.api.attach`` returns one).
"""

from __future__ import annotations

import time
import uuid
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from repro.core.injection import CampaignConfig
from repro.durable import atomic_write_json, read_json
from repro.service.daemon import DRAIN_REQUEST, HEARTBEAT_TIMEOUT, STOP_REQUEST
from repro.service.jobs import JobSpec, ServiceLayout, TERMINAL
from repro.service.sentinel import Sentinel
from repro.service.worker import JOURNAL_NAME, RESULT_NAME, TRACE_NAME


class ServiceUnavailable(RuntimeError):
    """The service directory has no status snapshot yet."""


def _load_status(service_dir: Union[str, Path]) -> Dict[str, Any]:
    layout = ServiceLayout(service_dir)
    payload = read_json(layout.status)
    if payload is None:
        raise ServiceUnavailable(
            f"{layout.status}: no status snapshot — has a daemon ever "
            f"started on this service directory?"
        )
    return payload


def service_status(service_dir: Union[str, Path],
                   heartbeat_timeout: float = HEARTBEAT_TIMEOUT) -> Dict[str, Any]:
    """The ``status`` admin view: daemon liveness + job counts.

    The liveness verdict comes from the daemon's *lock sentinel*, probed
    right now — not from the snapshot's age — so a SIGKILL'd daemon
    reads ``daemon_alive: false`` immediately.  The lock is beaten once
    a quarter of ``HEARTBEAT_TIMEOUT``: a ``heartbeat_timeout`` below
    that can read a live daemon as stale.
    """
    layout = ServiceLayout(service_dir)
    payload = _load_status(service_dir)
    lock_status = Sentinel(layout.lock).status(heartbeat_timeout)
    payload["daemon_alive"] = lock_status == "alive"
    payload["lock"] = lock_status
    return payload


def queue_snapshot(service_dir: Union[str, Path]) -> Dict[str, Any]:
    """The ``queue`` admin view: per-system queue depths + job list."""
    payload = _load_status(service_dir)
    jobs = payload.get("jobs", {})
    return {
        "queue": payload.get("queue", {}),
        "counts": payload.get("counts", {}),
        "jobs": [jobs[job_id] for job_id in sorted(jobs)],
        "updated_at": payload.get("updated_at"),
    }


def recovery_report(service_dir: Union[str, Path]) -> Dict[str, Any]:
    """The ``recovery`` admin view: what the last startup pass did."""
    return _load_status(service_dir).get("recovery", {})


def metrics_snapshot(service_dir: Union[str, Path]) -> Dict[str, Any]:
    """The ``metrics`` admin view: the daemon's counters/gauges/histograms."""
    return _load_status(service_dir).get("metrics", {})


class ServiceClient:
    """Talk to a campaign service through its directory.

    >>> client = ServiceClient("/var/run/crashtuner")   # doctest: +SKIP
    >>> job_id = client.submit("yarn", CampaignConfig(max_points=10))
    >>> client.wait(job_id)["detected_bugs"]            # doctest: +SKIP
    """

    def __init__(self, service_dir: Union[str, Path]):
        self.layout = ServiceLayout(service_dir)
        self.layout.ensure()

    # ------------------------------------------------------------------
    # submit
    # ------------------------------------------------------------------
    def submit(
        self,
        system: str,
        campaign: Optional[CampaignConfig] = None,
        config: Optional[Dict[str, Any]] = None,
        trace: bool = False,
        job_id: Optional[str] = None,
    ) -> str:
        """Spool one campaign submission; returns its job id.

        Crash-safe handoff: the spec is written to a temp name and
        renamed into ``spool/``, so the daemon (running now or started
        later) sees either nothing or one complete submission.
        """
        from repro.systems import bundled_systems  # late: big import chain

        known = sorted(s.name for s in bundled_systems())
        if system not in known:
            raise ValueError(
                f"unknown system {system!r} — pick one of {known}"
            )
        spec = JobSpec(
            job_id=job_id or f"{system}-{uuid.uuid4().hex[:12]}",
            system=system,
            campaign=campaign or CampaignConfig(),
            config=config,
            trace=trace,
            submitted_at=time.time(),
        )
        atomic_write_json(self.layout.spool / f"{spec.job_id}.json",
                          spec.to_dict())
        return spec.job_id

    # ------------------------------------------------------------------
    # observe
    # ------------------------------------------------------------------
    def status(self, heartbeat_timeout: float = HEARTBEAT_TIMEOUT) -> Dict[str, Any]:
        return service_status(self.layout.root, heartbeat_timeout)

    def queue(self) -> Dict[str, Any]:
        return queue_snapshot(self.layout.root)

    def recovery(self) -> Dict[str, Any]:
        return recovery_report(self.layout.root)

    def metrics(self) -> Dict[str, Any]:
        return metrics_snapshot(self.layout.root)

    def job(self, job_id: str) -> Optional[Dict[str, Any]]:
        """One job's admin summary, or None if unknown (yet)."""
        try:
            payload = _load_status(self.layout.root)
        except ServiceUnavailable:
            return None
        return payload.get("jobs", {}).get(job_id)

    def result(self, job_id: str) -> Optional[Dict[str, Any]]:
        """A finished job's ``result.json`` payload, or None."""
        return read_json(self.layout.job_dir(job_id) / RESULT_NAME)

    def journal_path(self, job_id: str) -> Path:
        return self.layout.job_dir(job_id) / JOURNAL_NAME

    def trace_path(self, job_id: str) -> Path:
        return self.layout.job_dir(job_id) / TRACE_NAME

    def wait(self, job_id: str, timeout: float = 300.0,
             poll: float = 0.1) -> Dict[str, Any]:
        """Block until a job's result lands; returns the result payload.

        Watches ``result.json`` *and* the job's admin state, so a job
        the daemon failed terminally (out of attempts) raises instead of
        hanging until timeout.
        """
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            result = self.result(job_id)
            if result is not None:
                summary = self.job(job_id)
                # only a settled attempt counts (a requeue deletes the
                # file; this closes the read-after-requeue window)
                if summary is None or summary["state"] in TERMINAL \
                        or summary["attempts"] == result.get("attempts"):
                    return result
            summary = self.job(job_id)
            if summary is not None and summary["state"] == "failed":
                raise RuntimeError(
                    f"job {job_id} failed: {summary.get('reason', '')}"
                )
            time.sleep(poll)
        raise TimeoutError(f"job {job_id}: no result after {timeout}s")

    # ------------------------------------------------------------------
    # control
    # ------------------------------------------------------------------
    def drain(self) -> None:
        """Ask the daemon to exit once queue and workers are empty."""
        atomic_write_json(self.layout.control / DRAIN_REQUEST,
                          {"at": time.time()})

    def stop(self) -> None:
        """Ask the daemon to exit now (workers keep running)."""
        atomic_write_json(self.layout.control / STOP_REQUEST,
                          {"at": time.time()})

    def jobs(self) -> List[Dict[str, Any]]:
        try:
            payload = _load_status(self.layout.root)
        except ServiceUnavailable:
            return []
        jobs = payload.get("jobs", {})
        return [jobs[job_id] for job_id in sorted(jobs)]
