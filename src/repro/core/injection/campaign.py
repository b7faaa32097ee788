"""The fault-injection testing campaign (paper Figure 4, bottom half).

Exercises each dynamic crash point in its own cluster run: the online log
agent feeds the meta-info store, the trigger arms the point, the control
center injects the fault, and the oracles judge the outcome.  A flagged
hang is optionally driven on — the same run — until the system has
outlived the timeouts it configured, to separate the paper's "timeout
issues" (Section 4.1.3) from true hangs.

This module is one injection: its config (:class:`CampaignConfig`, the
stable public knobs, see :mod:`repro.api`), its outcome, digest and
result types, and :func:`run_one_injection`.  The campaign that runs
every point, :func:`~repro.core.injection.executor.run_campaign`, lives
in :mod:`repro.core.injection.executor`.
"""

from __future__ import annotations

import hashlib
import json
import time as _wallclock
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple, Union

from repro.cluster import Cluster
from repro.core.analysis import AnalysisReport
from repro.core.injection.control_center import ControlCenter, InjectionRecord
from repro.core.injection.online_log import OnlineLogAgent, OnlineMetaStore
from repro.core.injection.oracles import Baseline, OracleVerdict, evaluate_run
from repro.core.injection.trigger import Trigger
from repro.core.profiler import DynamicCrashPoint
from repro.obs import InjectionDiagnosis, get_obs
from repro.obs.features import point_tokens
from repro.systems.base import RunReport, SystemUnderTest, run_workload

#: signature of a bug-attribution function (see repro.bugs.match_bugs)
BugMatcherFn = Callable[[RunReport, OracleVerdict], List[str]]

#: grace period after workload completion, so delayed symptoms (stale
#: timers, the yarn RM's resource-leak auditor) land in the observed logs
COOLDOWN = 10.0

#: cap on how far a flagged hang's run is driven, as a multiple of one
#: clean run (Section 4.1.3); the recovery horizon usually ends it sooner
EXTENDED_FACTOR = 400.0


@dataclass(frozen=True)
class CampaignConfig:
    """How a fault-injection campaign runs (the stable public knobs).

    Attributes:
        wait: simulated seconds the reading thread blocks after a
            pre-read shutdown (the paper's instrumented wait).
        random_fallback: target a random live node when no meta-info
            value resolves (paper Section 3.2.2).
        classify_timeouts: drive a flagged hang's run on until the system
            has outlived every wait it configured — its liveness monitors,
            chore-scanned guards and retry budgets, re-armed by whatever
            recovery they set off; at most 400x one run — to separate
            "timeout issues" from true hangs (Section 4.1.3).
        max_points: cap the number of dynamic crash points tested
            (``None`` tests all).
        seed: RNG seed for every cluster run of the campaign.
        workers: worker processes for the injection phase; ``1`` runs
            in-process, ``N > 1`` fans points out over a pool (replay) or
            lets that many snapshot children run at once (snapshot) and
            merges results in deterministic point order.  A replay
            campaign with fewer than ``workers * 2`` points left to run is
            too small to amortize pool startup and runs in-process (the
            realized choice is recorded on :class:`CampaignResult`).
        journal_path: when set, a JSONL checkpoint journal of per-point
            outcomes; an interrupted campaign re-run with the same
            journal resumes at the first untested point.
        execution: how the test phase executes each point.  ``"replay"``
            runs every injection from t=0 up to its fire, and on past it
            unless an earlier run of the campaign already fired the same
            fault into the same world — then that run's judged suffix is
            taken (suffix reuse, unobserved campaigns only);
            ``"snapshot"`` records the deterministic prefix once per scale
            group and runs each injection's suffix in a fork taken at its
            fire instant, reusing suffixes the same way.  Both are
            outcome-identical to running every point in full (see
            DESIGN.md).  Falls back to replay where ``fork`` is
            unavailable.
        point_order: the order the test phase visits dynamic crash
            points.  ``"point"`` (default) is the profiler's deterministic
            point order; ``"novelty"`` schedules novelty-first — a greedy
            farthest-point traversal over each point's static feature
            vector (see :mod:`repro.obs.analytics`) so a campaign capped
            by ``max_points`` spends its budget on the most dissimilar
            points and reaches its first detection sooner.  Applied
            *before* the ``max_points`` cut; outcomes, diagnoses, and the
            journal follow the scheduled order.
    """

    wait: float = 1.0
    random_fallback: bool = False
    classify_timeouts: bool = True
    max_points: Optional[int] = None
    seed: int = 0
    workers: int = 1
    journal_path: Optional[Union[str, Path]] = None
    execution: str = "replay"
    point_order: str = "point"

    def __post_init__(self) -> None:
        # Fields are validated here, at construction, so misuse fails with
        # one clear message instead of surfacing deep inside the executor
        # (or worse, being silently ignored).
        if self.execution not in ("replay", "snapshot"):
            raise ValueError(
                f"execution must be 'replay' or 'snapshot', got {self.execution!r}"
            )
        if self.point_order not in ("point", "novelty"):
            raise ValueError(
                f"point_order must be 'point' or 'novelty', got {self.point_order!r}"
            )
        if self.workers < 1:
            raise ValueError(
                f"workers must be >= 1, got {self.workers} — 1 runs "
                f"in-process, N > 1 fans out over a process pool"
            )
        if self.wait < 0:
            raise ValueError(
                f"wait must be >= 0 simulated seconds, got {self.wait}"
            )
        if self.max_points is not None and self.max_points < 0:
            raise ValueError(
                f"max_points must be >= 0 or None (test all points), "
                f"got {self.max_points}"
            )
        if self.journal_path is not None:
            journal = Path(self.journal_path)
            if str(self.journal_path) == "":
                raise ValueError(
                    "journal_path must name a file; pass None to disable "
                    "the checkpoint journal"
                )
            if journal.is_dir():
                raise ValueError(
                    f"journal_path {str(journal)!r} is a directory — the "
                    f"journal is one JSONL file (e.g. "
                    f"{str(journal / 'campaign.jsonl')!r}); snapshot and "
                    f"replay campaigns both append per-point outcome lines "
                    f"to it"
                )

    def replace(self, **overrides: Any) -> "CampaignConfig":
        """A copy with the given fields replaced (the config is frozen)."""
        return replace(self, **overrides)

    # ------------------------------------------------------------------
    # WAL/JSON round-trip: the campaign service persists submitted
    # configs in its write-ahead log and rehydrates them in workers
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """A JSON-able dict of every field (paths become strings)."""
        out = asdict(self)
        if out["journal_path"] is not None:
            out["journal_path"] = str(out["journal_path"])
        return out

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "CampaignConfig":
        """Rebuild a config from :meth:`to_dict` output.

        Unknown keys are rejected (a newer writer's config must not be
        silently narrowed by an older reader), bar the retired keys that
        older daemons persisted in their WAL and spool.
        """
        # force_workers (retired 1.7.0) and analytics (1.11.0) never
        # changed outcomes, and audit_fraction (1.15.0) sized a
        # verification lane that no longer runs, so they are dropped
        # whatever their value;
        # analytics_path (1.11.0) reordered points and point_select
        # (1.18.0) chose which ran, so only their defaults may be dropped
        if data.get("analytics_path") is not None:
            raise ValueError(
                "CampaignConfig.from_dict: analytics_path was removed in "
                "1.11.0 — order the points with repro.obs.analytics."
                "order_points(points, analytics_path=...) and pass them to "
                "run_campaign instead"
            )
        if data.get("point_select", "full") != "full":
            raise ValueError(
                f"CampaignConfig.from_dict: point_select="
                f"{data['point_select']!r} was removed in 1.18.0 — every "
                f"point runs, and replay computes each distinct suffix once"
            )
        retired = ("force_workers", "analytics", "analytics_path",
                   "audit_fraction", "point_select")
        data = {k: v for k, v in data.items() if k not in retired}
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ValueError(
                f"CampaignConfig.from_dict: unknown field(s) {unknown} — "
                f"written by a newer version?"
            )
        return cls(**data)


def _coerce_campaign(
    campaign: Optional[CampaignConfig],
    caller: str,
) -> CampaignConfig:
    """The ``campaign`` argument as a config: anything but a
    :class:`CampaignConfig` or ``None`` is a TypeError."""
    if campaign is None:
        return CampaignConfig()
    if not isinstance(campaign, CampaignConfig):
        raise TypeError(
            f"{caller}: campaign must be a CampaignConfig (or None), got "
            f"{type(campaign).__name__}; pass campaign=CampaignConfig(...)"
        )
    return campaign


@dataclass
class InjectionOutcome:
    """One plan entry (a dynamic crash point or a side campaign's), tested once."""

    dpoint: DynamicCrashPoint
    fired: bool
    injection: Optional[InjectionRecord]
    verdict: OracleVerdict
    matched_bugs: List[str] = field(default_factory=list)
    duration: float = 0.0
    wall_seconds: float = 0.0
    #: the full per-injection story (repro.obs), always populated
    diagnosis: Optional[InjectionDiagnosis] = None
    #: suffix reuse: the index of the point whose run's suffix this took
    #: (``None``: its own) and the fire's :func:`suffix_key` (``None``: no
    #: fire, or reuse off); beside ``data`` in the point's record
    reused_from: Optional[int] = field(default=None, compare=False)
    suffix: Optional[Tuple] = field(default=None, compare=False)

    @property
    def flagged(self) -> bool:
        return self.verdict.flagged

    # ------------------------------------------------------------------
    # journal round-trip: everything but the dynamic point itself, which
    # the campaign re-attaches by index (it is not JSON-able losslessly)
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        return {
            "point": self.dpoint.describe(),
            "fired": self.fired,
            "injection": self.injection.to_dict() if self.injection else None,
            "verdict": self.verdict.to_dict(),
            "matched_bugs": list(self.matched_bugs),
            "duration": self.duration,
            "wall_seconds": self.wall_seconds,
            "diagnosis": self.diagnosis.to_dict() if self.diagnosis else None,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any], dpoint: DynamicCrashPoint) -> "InjectionOutcome":
        return cls(
            dpoint=dpoint,
            fired=data["fired"],
            injection=(
                InjectionRecord.from_dict(data["injection"])
                if data.get("injection") else None
            ),
            verdict=OracleVerdict.from_dict(data["verdict"]),
            matched_bugs=list(data.get("matched_bugs", [])),
            duration=data.get("duration", 0.0),
            wall_seconds=data.get("wall_seconds", 0.0),
            diagnosis=(
                InjectionDiagnosis.from_dict(data["diagnosis"])
                if data.get("diagnosis") else None
            ),
        )


def outcome_digest(
    outcomes: Iterable[Union[InjectionOutcome, Dict[str, Any]]],
) -> str:
    """The identity of a set of outcomes: 16 hex digits of a sha256.

    Covers every field of every :meth:`InjectionOutcome.to_dict` except
    ``wall_seconds`` — the one property of the host, not of the campaign —
    over *sorted* rows, so replay, snapshot, pooled, resumed and reordered
    campaigns over the same points share it.  Accepts outcomes or their
    dicts; ``tests/data/outcome_digests.json`` pins the seed-0 values.
    """
    rows = []
    for outcome in outcomes:
        data = dict(outcome.to_dict() if isinstance(outcome, InjectionOutcome)
                    else outcome)
        data.pop("wall_seconds", None)
        rows.append(json.dumps(data, sort_keys=True))
    return hashlib.sha256("\n".join(sorted(rows)).encode()).hexdigest()[:16]


@dataclass
class CampaignResult:
    system: str
    outcomes: List[InjectionOutcome]
    baseline: Baseline
    wall_seconds: float
    #: simulated hours spent across all test runs (the paper's Test column)
    sim_seconds: float
    #: metrics snapshot of the campaign's observability context, if enabled
    metrics: Optional[Dict[str, Any]] = None
    #: worker processes the campaign was asked for (CampaignConfig.workers)
    workers: int = 1
    #: outcomes restored from the journal instead of re-run
    resumed: int = 0
    #: execution mode the test phase actually used ("replay"|"snapshot"):
    #: the configured mode unless the platform forced a replay fallback
    execution: str = "replay"
    #: worker processes actually used, after the small-campaign degrade
    #: rule and any platform fallback (see CampaignConfig.workers)
    workers_realized: int = 1
    #: snapshot-engine statistics (recording runs, own-suffix resumed/
    #: never-fired/fallback point counts, extended resumes) when it ran
    snapshot_stats: Optional[Dict[str, Any]] = None
    #: the order the test phase visited points (CampaignConfig.point_order)
    point_order: str = "point"
    #: points whose run or fork stopped at its fire and took an earlier
    #: run's suffix, restored ones included (DESIGN.md "Suffix reuse")
    reused: int = 0
    #: realized parallelism: this process's summed run walls / wall_seconds
    speedup: float = 0.0

    def first_detection(self) -> Optional[int]:
        """Index of the first tested injection that matched a bug."""
        for i, outcome in enumerate(self.outcomes):
            if outcome.matched_bugs:
                return i
        return None

    def flagged(self) -> List[InjectionOutcome]:
        return [o for o in self.outcomes if o.flagged]

    def diagnoses(self) -> List[InjectionDiagnosis]:
        return [o.diagnosis for o in self.outcomes if o.diagnosis is not None]

    def detected_bugs(self) -> Dict[str, List[InjectionOutcome]]:
        """Deduplicated: bug id -> the outcomes that exposed it."""
        out: Dict[str, List[InjectionOutcome]] = {}
        for outcome in self.outcomes:
            for bug in outcome.matched_bugs:
                out.setdefault(bug, []).append(outcome)
        return out

    def summary(self) -> Dict[str, Any]:
        """The JSON-able payload ``python -m repro campaign --json`` dumps
        and the campaign service stores in ``result.json``."""
        outcomes = [o.to_dict() for o in self.outcomes]
        return {
            "system": self.system,
            "n_points": len(outcomes),
            "resumed": self.resumed,
            "reused": self.reused,
            "outcomes": outcomes,
            "digest": outcome_digest(outcomes),
            "detected_bugs": {k: len(v) for k, v in self.detected_bugs().items()},
            "first_detection": self.first_detection(),
            "sim_seconds": self.sim_seconds,
            "wall_seconds": self.wall_seconds,
            "execution": self.execution,
            "workers_realized": self.workers_realized,
            "point_order": self.point_order,
        }


def _arm(
    cluster: Cluster,
    analysis: AnalysisReport,
    wait: float,
    random_fallback: bool = False,
) -> Tuple[OnlineLogAgent, ControlCenter]:
    """The ``before_run`` arm hook's shared half: store → agent → center.

    An online meta-info store, the log agent feeding it from the
    cluster's collector (attached, and caught up on anything already
    logged), and the control center that resolves targets against it.
    A plan entry's ``arm`` builds its trigger(s) on the center.
    """
    store = OnlineMetaStore(analysis.hosts)
    agent = OnlineLogAgent(analysis.index, analysis.log_result.meta_slots, store)
    assert cluster.log_collector is not None
    agent.attach(cluster.log_collector)
    return agent, ControlCenter(
        cluster, store, wait=wait, random_fallback=random_fallback)


def suffix_key(
    dpoint: DynamicCrashPoint,
    injection: Optional[InjectionRecord],
    ordinal: int,
) -> Tuple:
    """What one fire of ``dpoint`` leaves behind: two fires of a campaign
    with one key run the same suffix (DESIGN.md "Suffix reuse").

    ``injection`` is the fault the fire delivered (``None``: no meta-info
    value resolved) and ``ordinal`` the dispatched event it fired in.  The
    runs of one campaign share seed, config and, per scale, the
    injection-free prefix, so one ordinal is one handler invocation of one
    world.  A key is only as wide as the argument that fires under it
    behave alike:

    * nothing resolved — the trigger fires but injects nothing, so the run
      is the injection-free run of its scale whenever that happened: one
      key per scale, no ordinal;
    * ``"crash"`` — a crash is instantaneous and never pumps the event
      loop, and it always hits a node other than the executing one (a
      post-write self-target is downgraded to a shutdown).  The handler
      runs on to its end at the same simulated instant, and whatever it
      sends is delivered at least ``min_latency`` later, so whether a send
      precedes or follows the crash inside the handler is unobservable:
      the post-injection world is a function of (scale, target, exact fire
      time) alone, position-free.  A crash that kills the executing node
      itself (``NodeCrashedError``) cuts the handler short where it
      stands, so it has a position and gets no key;
    * ``"shutdown"`` — the control center's shutdown RPC pumps ``wait``
      simulated seconds *inside* the interrupted handler (pre-read, and
      post-write self-target), so the rest of the world runs on while the
      handler is suspended mid-statement, and *which* statement matters
      even when the target is remote.  The static token namespace
      (:func:`repro.obs.features.point_tokens`: meta-info field, access
      op, bounded stack suffix, location, lane) joins the key.

    The fire time is compared exactly: the network separates two
    deliveries on one channel by ``1e-9``, so any rounding merges distinct
    events.  ``tests/test_suffix_reuse.py`` holds reusing campaigns to
    their pinned digests and shows a coarser key caught; CI sweeps them
    against the campaign run without reuse over six systems and eight
    seeds.
    """
    if injection is None:
        return ("none", dpoint.scale)
    key = ("fire", dpoint.scale, injection.target_host, injection.kind,
           injection.time)
    if injection.kind == "shutdown":
        key += tuple(sorted(point_tokens(dpoint)))
    return key + (ordinal,)


def _file_suffix(suffixes: Optional[Dict[Tuple, Tuple[int, InjectionOutcome]]],
                 index: int, outcome: InjectionOutcome) -> None:
    """The one filing rule: point ``index``'s outcome under its key, if
    reuse is on and it ran its own suffix; the first filed wins."""
    if suffixes is not None and outcome.reused_from is None and outcome.suffix:
        suffixes.setdefault(outcome.suffix, (index, outcome))


class _Judge:
    """One injection's verdict over one timeline (paper Section 4.1.3).

    :meth:`at_deadline` is ``run_workload``'s continuation seam.  On its
    first consultation it judges the run as it stands at the 4x deadline
    and, for a fired, flagged hang, asks for the *same* cluster to be
    driven on.  How far is the recovery horizon (DESIGN.md "One
    timeline"): the last instant a guard was armed or tripped or a node
    died (``Cluster.last_recovery``, never earlier than the deadline),
    plus the longest wait the system configured (its liveness monitors'
    ``Cluster.longest_guard`` or its declared
    :meth:`~repro.systems.base.SystemUnderTest.recovery_horizon`), plus
    one more 4x budget for whatever a trip sets in motion — capped at
    ``EXTENDED_FACTOR`` runs.  Consulted again there, it answers the same
    way: a recovery in the meantime has moved the horizon on, none has
    left it where it is, which ends the extension.  :meth:`finish` folds
    the run's end into the judgement: a run that completed in its
    extension is a "timeout issue", anything else keeps the at-deadline
    outcome — so how long a true hang was driven shows in no outcome
    field.  The replay path and the snapshot child both judge through
    this one object; whoever arms the run sets ``trigger`` and ``agent``.

    Given ``suffixes`` — a campaign's map from :func:`suffix_key` to
    ``(index, outcome)`` of the run that first judged that suffix —
    :meth:`fired` is the trigger's post-fire callback.
    A known key cuts the run right after its fire (``SimLoop.stop``),
    :meth:`at_deadline` declines to extend it and :meth:`finish` returns
    the known outcome under this run's own at-fire evidence; a new key
    gets its run judged as usual and the outcome filed under it.
    """

    def __init__(
        self,
        system: SystemUnderTest,
        dpoint: DynamicCrashPoint,
        baseline: Baseline,
        cfg: CampaignConfig,
        matcher: Optional[BugMatcherFn],
        suffixes: Optional[Dict[Tuple, Tuple[int, InjectionOutcome]]] = None,
        index: int = -1,
    ):
        self.system = system
        self.dpoint = dpoint
        self.baseline = baseline
        self.cfg = cfg
        self.matcher = matcher
        self.suffixes = suffixes
        #: the point's campaign index, which a reusing run names
        self.index = index
        self.trigger: Optional[Trigger] = None
        self.agent: Optional[OnlineLogAgent] = None
        #: the run as judged at its deadline (None: it finished earlier)
        self.outcome: Optional[InjectionOutcome] = None
        #: the 4x deadline the run was driven past (None: it was not)
        self.budget: Optional[float] = None
        #: this run's suffix key, once its trigger fired and returned
        self.key: Optional[Tuple] = None
        #: ``(index, outcome)`` whose suffix this run takes (None: its own)
        self.source: Optional[Tuple[int, InjectionOutcome]] = None

    @property
    def extended(self) -> bool:
        return self.budget is not None

    def fired(self, ordinal: int) -> None:
        """Look the fire's suffix up; cut the run here if it is known."""
        center = self.trigger.center
        self.key = suffix_key(self.dpoint, center.injection, ordinal)
        self.source = self.suffixes.get(self.key)
        if self.source is not None:
            center.cluster.loop.stop()

    def _judge(self, report: RunReport, verdict: OracleVerdict) -> InjectionOutcome:
        assert self.trigger is not None, "judged a run nobody armed"
        return _judged(self.system, self.dpoint, self.trigger, verdict,
                       self.matcher, report)

    def at_deadline(self, report: RunReport) -> Optional[float]:
        if self.source is not None:
            return None  # a cut run: its suffix is another run's
        if self.outcome is None:
            verdict = evaluate_run(report, self.baseline)
            self.outcome = self._judge(report, verdict)
            if not (verdict.hang and self.cfg.classify_timeouts and self.outcome.fired):
                return None
            self.budget = report.deadline
            get_obs().metrics.counter("campaign.hangs_extended").inc()
            if not get_obs().enabled:
                # the extension only asks "does the run complete": the
                # diagnosis keeps the at-deadline store_size and the oracles
                # read the collector, not the store, so with telemetry off
                # nothing observable is fed by pattern-matching the long tail
                report.log.unsubscribe(self.agent)
        cluster = report.cluster
        wait = max(cluster.longest_guard,
                   self.system.recovery_horizon(cluster.config))
        cap = (self.system.base_runtime() * EXTENDED_FACTOR
               * max(1, self.dpoint.scale))
        return min(cap, max(self.budget, cluster.last_recovery)
                   + wait + self.budget)

    def finish(self, report: RunReport) -> InjectionOutcome:
        if self.source is None:
            outcome = self._verdict(report)
        else:
            index, source = self.source
            # (both runs fired: only a fire has a key)
            outcome = _clone_for(source, self.dpoint, **_at_fire(self.trigger))
            outcome.injection = self.trigger.center.injection
            outcome.reused_from = index
        outcome.suffix = self.key
        _file_suffix(self.suffixes, self.index, outcome)
        return outcome

    def _verdict(self, report: RunReport) -> InjectionOutcome:
        if self.outcome is None:
            return self._judge(report, evaluate_run(report, self.baseline))
        if not self.extended:
            return self.outcome
        # (whole seconds: counters are integral throughout repro.obs)
        get_obs().metrics.counter("campaign.extension_sim_seconds").inc(
            round(report.duration - self.budget))
        if not report.completed:
            return self.outcome  # a true hang: it outlived every timeout
        verdict = evaluate_run(report, self.baseline)
        verdict.timeout_issue = True
        outcome = self._judge(report, verdict)
        # what fired and what the store resolved is the at-deadline story
        outcome.diagnosis.store_size = self.outcome.diagnosis.store_size
        return outcome


def run_one_injection(
    system: SystemUnderTest,
    analysis: AnalysisReport,
    dpoint: DynamicCrashPoint,
    baseline: Baseline,
    campaign: Optional[CampaignConfig] = None,
    config: Optional[Dict[str, Any]] = None,
    matcher: Optional[BugMatcherFn] = None,
) -> InjectionOutcome:
    """Test one dynamic crash point (a flagged hang gets its extension)."""
    return _run_injection(system, analysis, dpoint, baseline,
                          _coerce_campaign(campaign, "run_one_injection"),
                          config, matcher)


def _run_injection(
    system: SystemUnderTest,
    analysis: AnalysisReport,
    dpoint: DynamicCrashPoint,
    baseline: Baseline,
    cfg: CampaignConfig,
    config: Optional[Dict[str, Any]],
    matcher: Optional[BugMatcherFn],
    suffixes: Optional[Dict[Tuple, Tuple[int, InjectionOutcome]]] = None,
    index: int = -1,
) -> InjectionOutcome:
    """:func:`run_one_injection`, reusing and filing suffixes in
    ``suffixes`` (point ``index`` of a replay campaign) when given."""
    wall0 = _wallclock.perf_counter()
    judge = _Judge(system, dpoint, baseline, cfg, matcher, suffixes, index)

    def before_run(cluster: Cluster, workload: Any) -> None:
        judge.agent, judge.trigger = dpoint.arm(
            cluster, analysis, cfg, judge.fired if suffixes is not None else None)

    try:
        report = run_workload(
            system, seed=getattr(dpoint, "seed", cfg.seed), config=config,
            scale=dpoint.scale, before_run=before_run, cooldown=COOLDOWN,
            extend=judge.at_deadline,
        )
    finally:
        if judge.trigger is not None:
            judge.trigger.uninstall()  # a no-op once it has fired
    outcome = judge.finish(report)
    obs = get_obs()
    if obs.enabled:
        obs.diagnoses.append(outcome.diagnosis)
    outcome.wall_seconds = _wallclock.perf_counter() - wall0
    return outcome


def _judged(
    system: SystemUnderTest,
    dpoint: DynamicCrashPoint,
    trigger: Trigger,
    verdict: OracleVerdict,
    matcher: Optional[BugMatcherFn],
    report: RunReport,
) -> InjectionOutcome:
    """The outcome of one judged run: attribution, diagnosis, record.

    Shared by :class:`_Judge` above and the snapshot recording pass's
    never-fired basis, so both assemble an outcome the same way.
    """
    matched = matcher(report, verdict) if (matcher and verdict.flagged) else []
    return InjectionOutcome(
        dpoint=dpoint,
        fired=trigger.fired,
        injection=trigger.center.injection,
        verdict=verdict,
        matched_bugs=matched,
        duration=report.duration,
        diagnosis=_diagnose(system, dpoint, trigger, verdict, matched, report),
    )


def _point_identity(dpoint: DynamicCrashPoint) -> Dict[str, Any]:
    """The diagnosis fields read off the plan entry: a dynamic crash
    point's own, any other entry's ``describe()``."""
    if not isinstance(dpoint, DynamicCrashPoint):
        return {"point": dpoint.describe(), "op": "", "field_name": "",
                "enclosing": "", "stack": [], "scale": dpoint.scale}
    point = dpoint.point
    return {
        "point": point.describe(),
        "op": point.op,
        "field_name": point.field_name,
        "enclosing": point.enclosing,
        "stack": list(dpoint.stack),
        "scale": dpoint.scale,
    }


def _at_fire(trigger: Trigger) -> Dict[str, Any]:
    """The diagnosis fields a run's own fire decides: what the point read
    and how it resolved.  Everything else is its suffix's."""
    center = trigger.center
    injection = center.injection
    return {
        "fired": trigger.fired,
        "hits": trigger.hits,
        "values": list(trigger.values),
        "resolved_value": injection.resolved_value if injection else "",
        "via_fallback": injection.via_fallback if injection else False,
        "unresolved_values": list(center.unresolved_values),
    }


def _clone_for(
    outcome: InjectionOutcome,
    dpoint: DynamicCrashPoint,
    **diagnosis_overrides: Any,
) -> InjectionOutcome:
    """``outcome``'s evidence under ``dpoint``'s own identity.

    For points known to share a run with another — snapshot never-fired
    points, points that reuse a suffix (which also pass their own
    at-fire fields): verdict, matched bugs, injection and
    measurements are the source's; the point-identity fields of the
    diagnosis are the clone's own.
    """
    clone = InjectionOutcome.from_dict(outcome.to_dict(), dpoint)
    if clone.diagnosis is not None:
        clone.diagnosis = replace(
            clone.diagnosis, **_point_identity(dpoint), **diagnosis_overrides
        )
    return clone


def _diagnose(
    system: SystemUnderTest,
    dpoint: DynamicCrashPoint,
    trigger: Trigger,
    verdict: OracleVerdict,
    matched: List[str],
    report: RunReport,
) -> InjectionDiagnosis:
    """Assemble the per-injection diagnosis record from the run's actors."""
    center = trigger.center
    injection = center.injection
    return InjectionDiagnosis(
        system=system.name,
        **_point_identity(dpoint),
        **_at_fire(trigger),
        target_host=injection.target_host if injection else "",
        store_size=center.store.size(),
        action=injection.kind if injection else "",
        injection_time=injection.time if injection else 0.0,
        killed=list(injection.killed) if injection else [],
        verdict_kinds=verdict.kinds(),
        flagged=verdict.flagged,
        matched_bugs=list(matched),
        uncommon_templates=list(verdict.uncommon_templates),
        duration=report.duration,
        events_processed=(
            report.cluster.loop.events_processed if report.cluster is not None else 0
        ),
    )

