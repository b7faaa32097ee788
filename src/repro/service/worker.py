"""The worker side of the campaign service: run one job, leave a trail.

A worker is a forked child of the daemon, but it is deliberately *not*
coupled to the daemon's life: it talks to the world only through its job
directory — the heartbeat sentinel it beats at every phase boundary and
campaign checkpoint, the campaign journal the executor appends per-point
outcome lines to, and the ``result.json`` it atomically writes at the
end.  A daemon that dies and restarts reattaches by watching those same
files; a worker that dies leaves a journal the next attempt resumes
from (no completed injection past the last checkpoint re-executes).
"""

from __future__ import annotations

import gc
import os
import time
import traceback
from pathlib import Path
from typing import Any, Dict, Optional

from repro.bugs import matcher_for_system
from repro.core.injection import run_campaign
from repro.core.pipeline import prepare
from repro.durable import atomic_write_json
from repro.obs import NULL_OBS, Observability, Tracer, write_trace_jsonl
from repro.service.jobs import JobSpec
from repro.service.sentinel import Sentinel
from repro.systems import get_system

JOURNAL_NAME = "journal.jsonl"
SENTINEL_NAME = "sentinel.json"
RESULT_NAME = "result.json"
TRACE_NAME = "trace.jsonl"


def run_job(spec: JobSpec, job_dir: Path, attempts: int = 1,
            cache_dir: Optional[Path] = None) -> Dict[str, Any]:
    """Run one submitted campaign to completion inside ``job_dir``.

    ``cache_dir`` is the service's shared setup cache: the first job on
    a system version publishes phase 1 there, later jobs and requeued
    attempts load it (:func:`repro.core.pipeline.prepare`).

    Returns the result payload (also durably written to ``result.json``).
    Never raises: failures become a ``state="failed"`` result so the
    daemon can record the transition without parsing tracebacks out of a
    dead pipe.
    """
    job_dir = Path(job_dir)
    job_dir.mkdir(parents=True, exist_ok=True)
    sentinel = Sentinel(job_dir / SENTINEL_NAME, owner=spec.job_id)
    sentinel.write(job_id=spec.job_id, phase="starting", attempts=attempts)

    def checkpoint(index: int, outcome: Any) -> None:
        # one beat per durable campaign checkpoint: the journal line for
        # this outcome is already on disk when the hook fires
        sentinel.beat(phase="campaign", checkpoint=index)

    try:
        cfg = spec.campaign.replace(journal_path=str(job_dir / JOURNAL_NAME))
        system = get_system(spec.system)
        obs = Observability(tracer=Tracer(max_spans=20_000)) if spec.trace else None
        setup: Dict[str, Any] = {}
        # a span on the job's tracer, not an ambient context: hit or
        # miss, the trace carries this one span for phase 1
        with (obs or NULL_OBS).tracer.span("setup", system=spec.system) as span:
            analysis, profile, baseline = prepare(
                system, cfg.seed, spec.config, cache_dir=cache_dir, info=setup)
            span.set(**setup)
        sentinel.beat(phase="setup", cache=setup["cache"])
        sentinel.beat(phase="campaign")
        result = run_campaign(
            system, analysis, profile.dynamic_points, campaign=cfg,
            config=spec.config, baseline=baseline,
            matcher=matcher_for_system(spec.system), obs=obs,
            on_outcome=checkpoint,
        )
        if obs is not None:
            write_trace_jsonl(job_dir / TRACE_NAME, obs=obs,
                              meta={"system": spec.system,
                                    "job_id": spec.job_id})
        payload = result.summary()
        # the outcome_digest: equal across interrupted, resumed and pooled
        # runs of one job, whatever ``setup`` says
        payload.update(state="done", error=None, setup=setup,
                       fingerprint=payload.pop("digest"))
    except BaseException as exc:  # noqa: BLE001 - the trail is the contract
        payload = {
            "system": spec.system,
            "state": "failed",
            "error": f"{type(exc).__name__}: {exc}",
            "traceback": traceback.format_exc(),
        }
    payload.update(job_id=spec.job_id, attempts=attempts, finished_at=time.time())
    # result.json lands atomically *before* the final beat, so any
    # observer that sees the "finished" phase will also see the result
    atomic_write_json(job_dir / RESULT_NAME, payload)
    sentinel.beat(phase="finished", state=payload["state"])
    return payload


def worker_main(spec_dict: Dict[str, Any], job_dir: str, attempts: int,
                cache_dir: Optional[str] = None) -> None:
    """Entry point of a forked worker process."""
    # as in a snapshot child: the job's collections leave the inherited
    # heap alone, not writing its GC headers and so copying its pages
    gc.freeze()
    spec = JobSpec.from_dict(spec_dict)
    payload = run_job(spec, Path(job_dir), attempts=attempts,
                      cache_dir=cache_dir)
    # a clean, immediate exit: the daemon learns the outcome from
    # result.json, not from our exit code (we may outlive the daemon)
    os._exit(0 if payload["state"] == "done" else 1)
