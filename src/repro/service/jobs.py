"""Job specs, lifecycle states, and the WAL-replayed job table.

A *job* is one submitted campaign: a system name plus the
:class:`~repro.core.injection.CampaignConfig` to run it under (and an
optional cluster config dict).  The daemon assigns each job a directory
under ``<service_dir>/jobs/<job_id>/`` holding its campaign journal (the
existing checkpoint/resume machinery), its heartbeat sentinel, and its
final ``result.json`` — so a job's entire durable state lives in files
that survive any process dying at any time.

Lifecycle::

    queued --dispatch--> running --result.json--> done
      ^                     |                \\-> failed
      \\----requeue (dead worker, journal kept)--/

Every arrow is one WAL transition frame; :class:`JobTable` folds the
frames back into per-job records on daemon startup.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from repro.core.injection import CampaignConfig


class ServiceLayout:
    """Where everything lives under one service directory.

    ::

        <root>/
          daemon.lock         the daemon's own heartbeat sentinel
          wal.jsonl           the write-ahead queue log (single writer)
          status.json         atomic admin-API snapshot, daemon-rewritten
          spool/              client submissions (atomic rename in)
          control/            drain/stop requests (atomic rename in)
          jobs/<job_id>/      journal.jsonl + sentinel.json + result.json
          setup-cache/        phase-1 artefacts shared by every job (<key>.pkl)
    """

    def __init__(self, root: Union[str, Path]):
        self.root = Path(root)
        self.lock = self.root / "daemon.lock"
        self.wal = self.root / "wal.jsonl"
        self.status = self.root / "status.json"
        self.spool = self.root / "spool"
        self.control = self.root / "control"
        self.jobs = self.root / "jobs"
        self.setup_cache = self.root / "setup-cache"

    def ensure(self) -> None:
        for directory in (self.root, self.spool, self.control, self.jobs,
                          self.setup_cache):
            directory.mkdir(parents=True, exist_ok=True)

    def job_dir(self, job_id: str) -> Path:
        return self.jobs / job_id

#: the four job states the WAL can record
QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"

STATES = (QUEUED, RUNNING, DONE, FAILED)

#: terminal states: no further transitions expected
TERMINAL = (DONE, FAILED)


@dataclass(frozen=True)
class JobSpec:
    """What was submitted: everything a worker needs to run the campaign.

    ``campaign.journal_path`` must be unset at submission — the service
    assigns each job's journal inside its job directory (that path *is*
    the resume token, so it cannot be caller-controlled).
    """

    job_id: str
    system: str
    campaign: CampaignConfig = field(default_factory=CampaignConfig)
    config: Optional[Dict[str, Any]] = None
    #: export the job's observability trace to ``<job_dir>/trace.jsonl``
    trace: bool = False
    submitted_at: float = 0.0

    def __post_init__(self) -> None:
        if self.campaign.journal_path is not None:
            raise ValueError(
                "JobSpec: campaign.journal_path is service-assigned "
                f"(jobs/{self.job_id}/journal.jsonl) — submit the config "
                "without it"
            )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "job_id": self.job_id,
            "system": self.system,
            "campaign": self.campaign.to_dict(),
            "config": self.config,
            "trace": self.trace,
            "submitted_at": self.submitted_at,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "JobSpec":
        return cls(
            job_id=data["job_id"],
            system=data["system"],
            campaign=CampaignConfig.from_dict(data["campaign"]),
            config=data.get("config"),
            trace=data.get("trace", False),
            submitted_at=data.get("submitted_at", 0.0),
        )


@dataclass
class JobRecord:
    """One job's current state, as replayed from the WAL."""

    spec: JobSpec
    state: str = QUEUED
    #: dispatch count: 1 on first run, +1 per requeue
    attempts: int = 0
    #: the current run's worker pid, as its sentinel last reported it
    #: (0 until the first beat is seen; never in the WAL)
    pid: int = 0
    #: why the job was last requeued/failed, for the admin APIs
    reason: str = ""

    @property
    def job_id(self) -> str:
        return self.spec.job_id

    @property
    def system(self) -> str:
        return self.spec.system

    def summary(self) -> Dict[str, Any]:
        """The admin-API view of this job."""
        return {
            "job_id": self.job_id,
            "system": self.system,
            "state": self.state,
            "attempts": self.attempts,
            "pid": self.pid,
            "reason": self.reason,
            "submitted_at": self.spec.submitted_at,
        }


class JobTable:
    """The in-memory queue state; always equal to a replay of the WAL."""

    def __init__(self) -> None:
        self.jobs: Dict[str, JobRecord] = {}
        #: submission order, for FIFO semantics downstream
        self.order: List[str] = []

    # ------------------------------------------------------------------
    # WAL replay
    # ------------------------------------------------------------------
    @classmethod
    def from_records(cls, records: List[Dict[str, Any]]) -> "JobTable":
        table = cls()
        for rec in records:
            table.apply(rec)
        return table

    def apply(self, rec: Dict[str, Any]) -> None:
        """Fold one WAL record into the table (also used live)."""
        kind = rec.get("type")
        if kind == "submit":
            data = rec["job"]
            if data["job_id"] in self.jobs:
                # replayed duplicate submit (client retried into the
                # spool): first one wins, later ones are no-ops
                return
            try:
                job = JobRecord(spec=JobSpec.from_dict(data))
            except ValueError as exc:
                # a campaign an older version accepted and this one no
                # longer runs (a retired knob): the job fails, the rest run
                job = JobRecord(
                    spec=JobSpec(data["job_id"], data["system"],
                                 submitted_at=data.get("submitted_at", 0.0)),
                    state=FAILED, reason=str(exc))
            self.jobs[job.job_id] = job
            self.order.append(job.job_id)
        elif kind == "transition":
            job = self.jobs.get(rec["job_id"])
            if job is None or job.state in TERMINAL:
                # final — also for a job failed above that an older
                # daemon went on to run
                return
            job.state = rec["state"]
            job.reason = rec.get("extra", {}).get("reason", "")
            if job.state == RUNNING:
                job.attempts += 1
                job.pid = 0

    # ------------------------------------------------------------------
    # WAL record builders (the daemon appends these, then applies them)
    # ------------------------------------------------------------------
    @staticmethod
    def submit_record(spec: JobSpec) -> Dict[str, Any]:
        return {"type": "submit", "job": spec.to_dict()}

    @staticmethod
    def transition_record(job_id: str, state: str,
                          **extra: Any) -> Dict[str, Any]:
        assert state in STATES, state
        return {
            "type": "transition",
            "job_id": job_id,
            "state": state,
            "at": time.time(),
            "extra": extra,
        }

    # ------------------------------------------------------------------
    # views
    # ------------------------------------------------------------------
    def in_state(self, *states: str) -> List[JobRecord]:
        return [self.jobs[jid] for jid in self.order
                if self.jobs[jid].state in states]

    def counts(self) -> Dict[str, int]:
        out = {state: 0 for state in STATES}
        for job in self.jobs.values():
            out[job.state] += 1
        return out

    # ------------------------------------------------------------------
    # the queue: a pure function of the table, so of the WAL
    # ------------------------------------------------------------------
    def next_job(self) -> Optional[JobRecord]:
        """The queued job to dispatch next, or ``None``.

        The system dispatched least so far goes first (ties by name),
        FIFO by submission within it.  Dispatches are counted from
        ``attempts``, which the WAL folds, so a restarted daemon picks
        what the dead one would have.
        """
        dispatched: Dict[str, int] = {}
        heads: Dict[str, JobRecord] = {}
        for job_id in self.order:
            job = self.jobs[job_id]
            dispatched[job.system] = (dispatched.get(job.system, 0)
                                      + job.attempts)
            if job.state == QUEUED:
                heads.setdefault(job.system, job)
        return min(heads.values(), default=None,
                   key=lambda job: (dispatched[job.system], job.system))

    def pending(self) -> int:
        return self.counts()[QUEUED]

    def queue(self) -> Dict[str, Any]:
        """The admin-API view: queue depth, total and per system."""
        per_system: Dict[str, int] = {}
        for job in self.in_state(QUEUED):
            per_system[job.system] = per_system.get(job.system, 0) + 1
        return {"pending": sum(per_system.values()), "per_system": per_system}

    def __len__(self) -> int:
        return len(self.jobs)
