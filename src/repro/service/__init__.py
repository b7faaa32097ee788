"""The campaign service: a crash-surviving daemon for queued campaigns.

CrashTuner's thesis is that systems must survive crashes at their worst
moments — this package makes the tool itself pass its own test.  One
:class:`CampaignDaemon` per service directory runs submitted campaigns
in forked worker processes, with every piece of state durable:

* the queue is a CRC-framed, fsync'd write-ahead log
  (:mod:`repro.durable`) with torn-tail truncation,
* workers heartbeat per-job pid sentinels (:mod:`repro.service.sentinel`)
  and checkpoint through the campaign journal, so a restarted daemon
  reattaches to live workers and resumes dead or hung workers' jobs
  from their last checkpoint,
* the queue is the WAL-folded job table itself — the next job is a pure
  function of it, per-system fair (:meth:`JobTable.next_job`),
* :mod:`repro.service.admin` serves ``status``/``queue``/``recovery``/
  ``metrics`` views and the :class:`ServiceClient` used by
  ``repro.api`` and ``python -m repro daemon``.

``kill -9`` the daemon or any worker at an arbitrary instant, restart,
and the completed campaign's outcomes are byte-identical to an
uninterrupted run (wall-clock aside) — the regression suite and CI's
daemon-smoke job hold that line.
"""

from repro.durable import WalCorrupt, WriteAheadLog, atomic_write_json
from repro.service.admin import (
    ServiceClient,
    ServiceUnavailable,
    metrics_snapshot,
    queue_snapshot,
    recovery_report,
    service_status,
)
from repro.service.daemon import CampaignDaemon, DaemonAlreadyRunning
from repro.service.jobs import JobRecord, JobSpec, JobTable, ServiceLayout
from repro.service.sentinel import Sentinel

__all__ = [
    "CampaignDaemon",
    "DaemonAlreadyRunning",
    "JobRecord",
    "JobSpec",
    "JobTable",
    "Sentinel",
    "ServiceClient",
    "ServiceLayout",
    "ServiceUnavailable",
    "WalCorrupt",
    "WriteAheadLog",
    "atomic_write_json",
    "metrics_snapshot",
    "queue_snapshot",
    "recovery_report",
    "service_status",
]
