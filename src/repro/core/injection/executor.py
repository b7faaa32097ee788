"""The campaign's test phase: :func:`run_campaign`, over one journal.

The paper's test phase (Figure 4) is one loop — arm a dynamic crash
point, run, judge — and so is this module, for every campaign: a point
is a *plan entry* — ``key()``, ``describe()``, ``scale``, an optional
run ``seed``, and ``arm(cluster, analysis, cfg, on_fired)`` -> ``(agent,
trigger)`` — a :class:`~repro.core.profiler.DynamicCrashPoint` or a side
campaign's (DESIGN.md "Plan entries"; only the former files or takes a
suffix).  Every point the journal does not restore runs in one of two
bodies — :func:`_replay`, in this process or over ``fork``-ed pool
workers, or :func:`~repro.core.injection.snapshot.run_snapshot`, off one
recording pass per scale group — which both index the campaign's real
point list and hand each finished point to the journal and nowhere else.

Every injection is an isolated, seed-deterministic simulation, so which
body ran a point, and where, never shows in the result: :func:`_merge`
emits outcomes, diagnoses, metrics and spans **in point order**, with
span ids remapped to exactly the ids a single traced run would have
allocated (see :meth:`~repro.obs.tracer.Tracer.adopt` and
:meth:`~repro.obs.metrics.MetricsRegistry.merge_snapshot`).  Only
wall-clock differs between replay, snapshot, pooled and resumed
campaigns.

Everything a point needs travels in one frozen :class:`ExecContext`.
Forked children inherit it (analysis reports and matchers are
deliberately not picklable): only point indices go into a pool worker,
and picklable :class:`~repro.core.injection.campaign.InjectionOutcome`
records plus span/metric payloads come back.  Where ``fork`` is
unavailable the campaign replays in-process with a warning.

Finished points go to one sink, the :class:`CampaignJournal`: a
flush-only :class:`~repro.durable.WriteAheadLog`
(``CampaignConfig.journal_path``; no file when ``None``) whose first
record, ``campaign-meta``, pins the campaign's identity, followed by one
``outcome`` record per tested point (:func:`encode_record`; a snapshot
child ships the same).  A re-run with the same journal restores them
whole and only tests the points the interrupted run never reached.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import sys
import time as _wallclock
import warnings
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

from repro.core.analysis import AnalysisReport
from repro.core.injection.campaign import (
    BugMatcherFn,
    CampaignConfig,
    CampaignResult,
    InjectionOutcome,
    _coerce_campaign,
    _file_suffix,
    _run_injection,
)
from repro.core.injection.oracles import Baseline, build_baseline
from repro.core.profiler import DynamicCrashPoint
from repro.durable import WalCorrupt, WriteAheadLog
from repro.obs import NULL_OBS, Observability, get_obs
from repro.systems.base import SystemUnderTest, world_scope

JOURNAL_VERSION = 2

#: checkpoint hook signature: ``(point_index, outcome)`` per tested point
OutcomeHook = Callable[[int, InjectionOutcome], None]

#: one run's telemetry, as :func:`_telemetry` packs it
Payload = Dict[str, Any]


class JournalMismatch(ValueError):
    """The journal on disk was written by a different campaign."""


def _canonical_config(config: Optional[Dict[str, Any]]) -> str:
    """A stable fingerprint of the cluster config (hash-order independent)."""
    if not config:
        return ""
    items = []
    for key in sorted(config):
        value = config[key]
        if isinstance(value, (set, frozenset)):
            value = sorted(value)
        items.append((key, repr(value)))
    return repr(items)


def encode_record(index: int, outcome: InjectionOutcome) -> Dict[str, Any]:
    """Point ``index`` as the one record the journal and a fork ship."""
    return {"index": index, "key": repr(outcome.dpoint.key()),
            "data": outcome.to_dict(), "reused_from": outcome.reused_from,
            "suffix": outcome.suffix}


def decode_record(record: Dict[str, Any],
                  points: List[DynamicCrashPoint]) -> Optional[InjectionOutcome]:
    """The outcome a point record holds, or ``None`` when the record names
    no point of ``points`` (index out of range, or another point's key)."""
    index = record.get("index", -1)
    if not (0 <= index < len(points)
            and record.get("key") == repr(points[index].key())):
        return None
    outcome = InjectionOutcome.from_dict(record["data"], points[index])
    # a 1.20.0 record has ``reused_from`` only when set, and no suffix
    outcome.reused_from = record.get("reused_from")
    outcome.suffix = tuple(record["suffix"]) if record.get("suffix") else None
    return outcome


class CampaignJournal:
    """The campaign's one outcome sink: append, then notify.

    Every point lands here once, under its *campaign* index: restored
    by :meth:`open` or handed to :meth:`record`, whose frame is appended
    and flushed when a ``path`` is configured before the ``on_outcome``
    hook fires, so a hook that observes a checkpoint can rely on it
    being on disk.
    """

    def __init__(
        self,
        path: Optional[Union[str, Path]],
        points: List[DynamicCrashPoint],
        on_outcome: Optional[OutcomeHook] = None,
    ):
        self.path = Path(path) if path is not None else None
        self._points = points
        self._hook = on_outcome
        self._log: Optional[WriteAheadLog] = None
        #: index -> outcome of every point restored or recorded
        self.outcomes: Dict[int, InjectionOutcome] = {}
        #: index -> the one payload of each point this process recorded
        self.payloads: Dict[int, Optional[Payload]] = {}

    # ------------------------------------------------------------------
    @staticmethod
    def meta_for(
        system: SystemUnderTest,
        points: List[DynamicCrashPoint],
        cfg: CampaignConfig,
        config: Optional[Dict[str, Any]],
    ) -> Dict[str, Any]:
        """What identifies a campaign: same meta -> same outcomes."""
        meta = {
            "version": JOURNAL_VERSION,
            "system": system.name,
            "seed": cfg.seed,
            "wait": cfg.wait,
            "random_fallback": cfg.random_fallback,
            "classify_timeouts": cfg.classify_timeouts,
            "n_points": len(points),
            "config": _canonical_config(config),
        }
        if system.world_scale != 1:
            # same name, seed and point keys, a different world: omitted
            # at 1 to keep pre-existing journals valid
            meta["world_scale"] = system.world_scale
        if cfg.point_order != "point":
            # journal indices follow the scheduled order, so resuming under
            # a different order must mismatch; the key is omitted for the
            # default order to keep pre-existing journals valid
            meta["point_order"] = cfg.point_order
        return meta

    def open(self, meta: Dict[str, Any]) -> None:
        """Restore what the file already holds, then open it for append.

        Fills :attr:`outcomes`.  Raises :class:`JournalMismatch` when the
        journal belongs to a different campaign (its first record is not
        this campaign's meta — system, seed, knobs, config, point list or
        journal version) or is damaged anywhere but its last line: mixing
        campaigns, or resuming past a lost checkpoint, would silently
        corrupt results.  Records whose point key no longer matches are
        ignored (untested).  A torn last line is truncated away before
        appending (see :mod:`repro.durable`).
        """
        if self.path is None:
            return
        self._log = WriteAheadLog(self.path, fsync=False)
        try:
            records = self._log.replay()
        except WalCorrupt as exc:
            raise JournalMismatch(f"{exc}; delete it to start over") from None
        pinned = {"type": "campaign-meta", **meta}
        if records and records[0] != pinned:
            raise JournalMismatch(
                f"{self.path}: journal was written by a different campaign "
                f"(journal {records[0]!r} != current {pinned!r}); delete the "
                f"file to start over"
            )
        for record in records[1:]:
            outcome = decode_record(record, self._points)
            if outcome is not None:
                self.outcomes[record["index"]] = outcome
        self._log.open_append()
        if not records:
            # also the file that existed but never got its identity line
            # (empty, or killed during the very first write)
            self._log.append(pinned)

    def record(self, index: int, outcome: InjectionOutcome,
               payload: Optional[Payload]) -> None:
        self.outcomes[index] = outcome
        self.payloads[index] = payload
        if self._log is not None:
            self._log.append({"type": "outcome", **encode_record(index, outcome)})
        if self._hook is not None:
            self._hook(index, outcome)

    def close(self) -> None:
        if self._log is not None:
            self._log.close()


# ---------------------------------------------------------------------------
# one point, run from t=0
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class ExecContext:
    """Everything a point needs to run, fixed for the whole campaign."""

    system: SystemUnderTest
    analysis: Optional[AnalysisReport]
    points: List[DynamicCrashPoint]
    baseline: Baseline
    matcher: Optional[BugMatcherFn]
    cfg: CampaignConfig
    config: Optional[Dict[str, Any]]
    #: the ambient ``Observability`` is on: runs ship telemetry payloads
    observed: bool
    #: ``cfg.workers``, or 1 where the platform cannot fork
    workers: int
    #: suffix reuse (DESIGN.md "Suffix reuse"): suffix key -> ``(index,
    #: outcome)`` of the run that judged it; a pool worker fills its own
    #: copy, a snapshot fork reads the copy it was forked with.  ``None``
    #: when observed: the injection span names the point
    suffixes: Optional[Dict[Tuple, Tuple[int, InjectionOutcome]]]


def _telemetry(obs: Observability) -> Payload:
    """Pack a private context's spans and metrics for :func:`_merge`."""
    return {
        "spans": [span.to_dict() for span in obs.tracer.spans],
        "allocated": obs.tracer.ids_allocated(),
        "metrics": obs.metrics.snapshot(),
    }


def run_point(ctx: ExecContext, index: int) -> Tuple[InjectionOutcome, Optional[Payload]]:
    """Replay one point in this process; returns its outcome + telemetry.

    When the campaign is observed the run gets a fresh private context —
    wherever it executes — so that :func:`_merge` can re-stitch spans and
    metrics in point order, reproducing what one registry/tracer would
    have recorded had the points run back to back.
    """
    # entering NULL_OBS is a no-op: the (disabled) ambient context stays
    private = Observability() if ctx.observed else NULL_OBS
    with private, world_scope():
        outcome = _run_injection(
            ctx.system, ctx.analysis, ctx.points[index], ctx.baseline,
            ctx.cfg, ctx.config, ctx.matcher, ctx.suffixes, index,
        )
    return outcome, _telemetry(private) if ctx.observed else None


# ---------------------------------------------------------------------------
# the replay body: in this process, or over a pool of forked workers
# ---------------------------------------------------------------------------
#: set in pool workers only, by the pool's initializer: the context comes
#: through fork inside the worker's process object, never pickled
_inherited_ctx: Optional[ExecContext] = None


def _inherit(ctx: ExecContext, parent: int) -> None:
    global _inherited_ctx
    _inherited_ctx = ctx
    # Ctrl-C reaches the whole process group; the campaign process answers
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    if sys.platform == "linux":
        # a worker blocked on the call queue never learns that its parent
        # was SIGKILLed (a STALE daemon job): let the kernel tell it
        import ctypes

        ctypes.CDLL(None).prctl(1, signal.SIGKILL)  # PR_SET_PDEATHSIG
        if os.getppid() != parent:
            os._exit(0)  # the parent died before the kernel could be told


def _pooled_point(index: int) -> Tuple[int, InjectionOutcome, Optional[Payload]]:
    assert _inherited_ctx is not None, "pool worker started without a context"
    return (index,) + run_point(_inherited_ctx, index)


def _replay(ctx: ExecContext, indices: List[int], sink: CampaignJournal) -> int:
    """Re-run every index from t=0; returns the pool width it used.

    Up to its fire, that is: a run whose fire repeats one this process
    already ran past (``ExecContext.suffixes``) stops there and takes
    that run's judged suffix (DESIGN.md "Suffix reuse").
    """
    if ctx.workers == 1 or len(indices) < ctx.workers * 2:
        # pool startup dominates campaigns this small (Table 11's
        # zookeeper/cassandra rows ran *slower* pooled than in-process)
        for index in indices:
            sink.record(index, *run_point(ctx, index))
        return 1
    pool = ProcessPoolExecutor(
        max_workers=ctx.workers,
        mp_context=multiprocessing.get_context("fork"),
        initializer=_inherit, initargs=(ctx, os.getpid()),
    )
    try:
        futures = [pool.submit(_pooled_point, index) for index in indices]
        for future in as_completed(futures):
            sink.record(*future.result())
    finally:
        # a raising sink (``on_outcome`` aborts the campaign) or a
        # SIGINT must not run the queued points out first
        pool.shutdown(wait=True, cancel_futures=True)
    return ctx.workers


# ---------------------------------------------------------------------------
# the campaign: run what the journal lacks, merge
# ---------------------------------------------------------------------------
def run_campaign(
    system: SystemUnderTest,
    analysis: Optional[AnalysisReport],
    dynamic_points: List[DynamicCrashPoint],
    campaign: Optional[CampaignConfig] = None,
    config: Optional[Dict[str, Any]] = None,
    baseline: Optional[Baseline] = None,
    matcher: Optional[BugMatcherFn] = None,
    obs: Optional[Observability] = None,
    on_outcome: Optional[OutcomeHook] = None,
) -> CampaignResult:
    """Exercise every dynamic crash point, one run each (Figure 4).

    Args:
        campaign: the :class:`CampaignConfig` for this campaign —
            ``workers > 1`` runs points on a worker pool,
            ``journal_path`` checkpoints per-point outcomes for resume,
            ``max_points`` caps the points tested.
        baseline: clean-run baseline; built (and traced) here exactly
            once when ``None``.
        obs: observability context for the campaign.  When given it is
            installed as the ambient context for the campaign's duration;
            otherwise the already-ambient context (if any) is used.  The
            result carries the context's metrics snapshot, and one
            :class:`~repro.obs.InjectionDiagnosis` per point lands both on
            the outcomes and on ``obs.diagnoses`` — identically whether
            the campaign ran sequentially or on a worker pool.
        on_outcome: checkpoint hook, called as ``on_outcome(index,
            outcome)`` — ``index`` into the campaign's point list — each
            time a point is tested in this process.  It fires right after
            the point's journal line, when a journal is configured, in
            completion order, which under a worker pool may differ from
            point order.
            Restored (journal-resumed) points do not call it.  The
            campaign service uses this to beat each job's heartbeat
            sentinel at every checkpoint; exceptions propagate and abort
            the campaign without running the points still queued.  A
            snapshot campaign calls it while its recording pass is
            suspended at a fork, so it must not start a simulation.
    """
    cfg = _coerce_campaign(campaign, "run_campaign")
    wall0 = _wallclock.perf_counter()
    active = obs if obs is not None else get_obs()
    points = list(dynamic_points)
    if cfg.point_order == "novelty":
        # imported lazily: analytics is a post-hoc layer over this module's
        # output; only the scheduler hook reaches forward into it
        from repro.obs.analytics import order_points

        points = order_points(points)
    if cfg.max_points is not None:
        points = points[:cfg.max_points]
    workers, execution = cfg.workers, cfg.execution
    if ((workers > 1 or execution == "snapshot")
            and "fork" not in multiprocessing.get_all_start_methods()):
        warnings.warn(
            "parallel and snapshot campaigns need the 'fork' start method, "
            "which this platform lacks; replaying sequentially",
            RuntimeWarning,
        )
        workers, execution = 1, "replay"
    with active:
        with active.tracer.span("campaign", system=system.name,
                                points=len(points), workers=cfg.workers) as span:
            if baseline is None:
                with active.tracer.span("baseline", system=system.name):
                    baseline = build_baseline(system, config=config)
            ctx = ExecContext(
                system=system, analysis=analysis, points=points,
                baseline=baseline, matcher=matcher, cfg=cfg, config=config,
                observed=active.enabled, workers=workers,
                suffixes=None if active.enabled else {},
            )
            journal = CampaignJournal(cfg.journal_path, points, on_outcome)
            try:
                journal.open(CampaignJournal.meta_for(system, points, cfg, config))
                # before either body starts: pool workers and snapshot forks
                # inherit the suffixes the interrupted run paid for
                for index, outcome in journal.outcomes.items():
                    _file_suffix(ctx.suffixes, index, outcome)
                todo = [i for i in range(len(points)) if i not in journal.outcomes]
                if execution == "snapshot":
                    # imported lazily: the snapshot module imports this one
                    from repro.core.injection.snapshot import run_snapshot

                    stats = run_snapshot(ctx, todo, journal)
                    realized = workers if todo else 1
                else:
                    stats, realized = None, _replay(ctx, todo, journal)
            finally:
                journal.close()
            outcomes = _merge(points, journal, active, span)
    wall = _wallclock.perf_counter() - wall0
    worked = sum(journal.outcomes[i].wall_seconds for i in journal.payloads)
    return CampaignResult(
        system=system.name,
        outcomes=outcomes,
        baseline=baseline,
        wall_seconds=wall,
        sim_seconds=sum(o.duration for o in outcomes),
        metrics=active.metrics.snapshot() if active.enabled else None,
        workers=cfg.workers,
        resumed=len(journal.outcomes) - len(journal.payloads),
        execution=execution,
        workers_realized=realized,
        snapshot_stats=stats,
        point_order=cfg.point_order,
        reused=sum(o.reused_from is not None for o in outcomes),
        speedup=worked / wall if wall > 0 else 0.0,
    )


def _merge(
    points: List[DynamicCrashPoint],
    sink: CampaignJournal,
    active: Observability,
    campaign_span: Any,
) -> List[InjectionOutcome]:
    """The deterministic merge: one outcome per point, in point order.

    Telemetry is re-stitched under the campaign span and diagnoses land
    on ``active`` exactly as one traced in-order run would have recorded
    them.  Restored points carry no payloads: their diagnoses rejoin, but
    spans and metrics of an interrupted process are gone with it
    (DESIGN.md — a resumed campaign's telemetry covers this process only).
    """
    reparent_to = (
        campaign_span.record.span_id
        if active.enabled and hasattr(campaign_span, "record") else None
    )
    outcomes: List[InjectionOutcome] = []
    for index in range(len(points)):
        outcome = sink.outcomes[index]
        payload = sink.payloads.get(index)
        if payload is not None:
            active.tracer.adopt(payload["spans"], allocated=payload["allocated"],
                                reparent_to=reparent_to)
            active.metrics.merge_snapshot(payload["metrics"])
        if active.enabled and outcome.diagnosis is not None:
            active.diagnoses.append(outcome.diagnosis)
        outcomes.append(outcome)
    return outcomes
