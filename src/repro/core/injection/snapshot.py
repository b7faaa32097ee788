"""Snapshot-and-resume execution of injection campaigns.

The replay executor re-runs the deterministic prefix of every injection:
each of the campaign's N test runs simulates from t=0 even though, until
the armed crash point first fires, the run is event-for-event identical
to the injection-free recording of the same seed/scale (the determinism
contract pinned by the kernel and campaign test suites).  This module
removes that redundancy: **one recording pass per scale group forks the
whole simulated world at each point's first-fire instant, and the fork
executes only that injection's suffix** — O(1 recording run + sum of
suffixes) instead of O(N full runs).

A Python-level ``deepcopy``/restore of the world is unsound here: queued
:class:`~repro.sim.events.Event` callbacks are closures over live node,
network, and workload objects, so reinstalling a saved event queue into a
world whose objects have moved on replays the wrong state.  The snapshot
is therefore the operating system's: ``os.fork()`` at the fire instant
captures loop, cluster, RNG, logs, meta-info store, and armed trigger in
one copy-on-write image.  A world is rebuilt by replay or copied by fork;
nothing restores one in process.

Process tree (one tier, at most ``workers`` children at any moment)::

    campaign process   runs the injection-free recording pass itself; at
      │                each point's first matching access event it forks,
      │                and — whenever ``workers`` children are running —
      │                blocks until one is done before simulating on
      ├─ child         fires point P's trigger against the inherited
      │                world, lets the already-in-flight run_workload()
      │                finish — the suffix — writes the outcome to its
      │                pipe and exits; a fire whose suffix an earlier
      │                child already judged stops there and ships at once
      └─ ...

A snapshot serves exactly one resume, the instant it is taken: nothing is
parked, named or stored, so a campaign process that dies leaves at most
``workers`` children that finish their suffix, find the pipe closed and
exit.  The campaign process reads a finished child's pipe to EOF, reaps
it and hands the point to the journal sink right there, inside the
recording pass, so checkpoints land as points complete.  A flagged hang
needs no second resume: the child judges its suffix through the same
:class:`~repro.core.injection.campaign._Judge` the replay path uses, and
``run_workload``'s continuation seam drives the run it already holds on
to its recovery horizon (paper Section 4.1.3), and reuses suffixes
(DESIGN.md "Suffix reuse"): a fire whose key the map it was forked with
holds stops there.  Each new key a child reports is filed for every
later fork (siblings in flight share nothing) and fallback replay.
Points whose trigger never fires during the recording pass need no fork
at all: for them the recording run *is* the test run, and its
verdict/diagnosis/telemetry are shared.

Three invariants keep the recording pass the run every replay would have
had.  (1) The bus hook never perturbs the simulated world: it runs inside
a node handler, where an escaping ``Exception`` would be swallowed as a
simulated abort (``Node._enter``), so a failed ``pipe``/``fork`` or a
child that raised or died — however hard: either way its pipe reads EOF
before a whole reply — only *queues* the point, and its in-process replay
(:func:`~repro.core.injection.executor.run_point`) waits until the pass
has returned: a ``run_workload`` nested inside the hook would run under
the watcher's own bus hook.  Likewise an exception out of the sink
(``on_outcome`` aborting the campaign) is held, stops further forking,
and is re-raised once the pass is over.  (2) A child never returns into
the campaign's stack: every path out of the recording pass ends in
``os._exit`` there, so inherited journal and stdio buffers are never
flushed twice.  (3) A child's telemetry stays undecoded bytes until the
round's last fork — what the campaign process's heap holds, every later
child inherits and, touching it, copies.

Equivalence (asserted end-to-end by ``tests/test_snapshot_campaign.py``):
outcomes, verdicts, matched bugs, diagnoses, merged metrics, and
re-stitched spans are identical to the replay executor's, because the
recording prefix is byte-identical to each replay run's prefix and the
child executes the identical firing code (:meth:`Trigger.fire`) at the
identical event.  Only ``wall_seconds`` differs.  Snapshot mode never
changes *what* is computed, only *how*.

To the executor this is just the other body of its runner seam
(:class:`SnapshotRunner`): same context, same indices, same sink; a child
ships its point as the journal's record (``executor.encode_record``).
"""

from __future__ import annotations

import json
import os
import select
import signal
import time as _wallclock
from typing import Any, Dict, List, Optional, Tuple

from repro.cluster.state import BUS, AccessEvent
from repro.core.injection.campaign import (
    COOLDOWN,
    InjectionOutcome,
    _arm,
    _clone_for,
    _file_suffix,
    _Judge,
    _judged,
)
from repro.core.injection.executor import (
    CampaignJournal,
    ExecContext,
    Payload,
    _telemetry,
    decode_record,
    encode_record,
    run_point,
)
from repro.core.injection.online_log import OnlineLogAgent
from repro.core.injection.oracles import evaluate_run
from repro.core.injection.trigger import Trigger, point_key, point_matches
from repro.core.profiler import DynamicCrashPoint
from repro.obs import NULL_OBS, Observability, get_obs
from repro.systems.base import run_workload

#: filled in a forked child (``entry``, ``out``, ``wall0``, ``judge``);
#: empty in the campaign process.  The code the recording pass returns
#: into checks it to learn which process it woke up in.
_ROLE: Dict[str, Any] = {}


class _ArmedPoint:
    """One pending point of a scale group and its trigger."""

    __slots__ = ("index", "dpoint", "trigger", "recorded")

    def __init__(self, index: int, dpoint: Any):
        self.index = index
        self.dpoint = dpoint
        self.trigger: Optional[Trigger] = None
        #: the point's first-fire event was seen during the recording pass
        self.recorded = False


class _SnapshotWatcher:
    """The recording pass's access-bus hook: all pending points at once.

    Where the replay path installs one :class:`Trigger` that fires, this
    installs one hook that *never injects*: at each point's first matching
    event it forks that point's child, then lets the recording run
    continue unperturbed.  Matching reuses the trigger's own
    :func:`point_matches`, so "the event the recording pass forked on" is
    exactly "the event the replay trigger would fire on", and the hook is
    keyed to the union of the pending points' ``(field, op)`` pairs, as
    each trigger is to its own.  Every matching point gets its own fork,
    even at one event: whether its suffix is a known one is for the child
    to learn from its own fire.
    """

    def __init__(self, entries: List[_ArmedPoint], this: "_Round"):
        self.entries = entries
        self.round = this
        self.ctx = this.ctx
        #: result pipe's read end -> (point, child pid) of running children
        self.inflight: Dict[int, Tuple[_ArmedPoint, int]] = {}
        #: fired points without an outcome (no fork, or a child that raised
        #: or died): replayed in-process once the pass is over
        self.failed: List[_ArmedPoint] = []
        #: what the sink raised inside the pass, re-raised after it
        self.held: Optional[Exception] = None
        self.agent: Optional[OnlineLogAgent] = None
        self._installed = False

    # -- before_run hook: one store/agent feeds *all* armed points, and
    # none of their triggers is installed -------------------------------
    def arm(self, cluster: Any, workload: Any) -> None:
        cfg = self.ctx.cfg
        self.agent, center = _arm(
            cluster, self.ctx.analysis, cfg.wait, cfg.random_fallback)
        for entry in self.entries:
            entry.trigger = Trigger(entry.dpoint, center)
        BUS.add_hook(self._hook,
                     keys={point_key(entry.dpoint) for entry in self.entries})
        self._installed = True

    def uninstall(self) -> None:
        if self._installed:
            BUS.remove_hook(self._hook)
            self._installed = False

    # ------------------------------------------------------------------
    def _hook(self, event: AccessEvent) -> None:
        for entry in self.entries:
            if entry.recorded or not point_matches(entry.dpoint, event):
                continue
            entry.recorded = True
            if self.held is None and self._fork(entry):
                # the child: inject here and let the inherited
                # run_workload() call stack finish the suffix
                self._resume(entry, event)
                return
        if all(entry.recorded for entry in self.entries):
            # every snapshot is taken: nobody consumes access events for
            # the rest of the recording run, so stop paying for their
            # construction (emission is observation-only — bus state
            # never influences how the simulation evolves)
            self.uninstall()

    def _fork(self, entry: _ArmedPoint) -> bool:
        """Snapshot the world for one point; True only in the child."""
        # a SIGINT landing inside fork's own hooks is swallowed there: hold
        # it until the child is on the books (abandon() can then kill it).
        # The child keeps it held: Ctrl-C reaches the whole process group
        # and is the campaign process's to answer
        mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
        try:
            result_r, result_w = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(result_r)
                os.close(result_w)
                raise
        except OSError:
            # no snapshot (process or fd limit, memory): the world goes on
            signal.pthread_sigmask(signal.SIG_SETMASK, mask)
            self.failed.append(entry)
            return False
        if pid == 0:
            # the read ends are the campaign's; keeping a sibling's would
            # hold its pipe open after the campaign process is gone
            for fd in (result_r, *self.inflight):
                os.close(fd)
            _ROLE.update(entry=entry, out=result_w,
                         wall0=_wallclock.perf_counter())
            return True
        os.close(result_w)
        self.inflight[result_r] = (entry, pid)
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        while len(self.inflight) >= self.ctx.workers and self.held is None:
            self.collect()
        return False

    def _resume(self, entry: _ArmedPoint, event: AccessEvent) -> None:
        """Turn the forked recording pass into this one point's test run.

        No hook is installed for the suffix: the match already happened —
        at this very event — during the recording pass, and a fired
        trigger stops listening anyway (:meth:`Trigger.fire`), so the
        suffix runs with the access bus disabled, exactly like replay's,
        and stops at the fire when its suffix is already known.
        """
        self.uninstall()
        ctx = self.ctx
        judge = _Judge(ctx.system, entry.dpoint, ctx.baseline, ctx.cfg,
                       ctx.matcher, ctx.suffixes, entry.index)
        judge.trigger, judge.agent = entry.trigger, self.agent
        if ctx.suffixes is not None:
            entry.trigger.on_fired = judge.fired
        _ROLE["judge"] = judge
        judge.trigger.fire(event)

    def collect(self) -> None:
        """Wait for one child to finish, reap it, and sink its point."""
        fd = select.select(list(self.inflight), [], [])[0][0]
        entry, pid = self.inflight.pop(fd)
        with os.fdopen(fd, "rb") as pipe:
            # readable means written-and-exiting or dead: EOF is at hand
            telemetry, last = pipe.readline(), pipe.read()
        os.waitpid(pid, 0)
        try:
            record = json.loads(last)
        except ValueError:
            # nothing, or torn output: the child raised or died on the way
            self.failed.append(entry)
            return
        this = self.round
        outcome = decode_record(record, self.ctx.points)
        this.stats["resumed_points"] += outcome.reused_from is None
        # every later fork inherits it; a sibling in flight does not
        _file_suffix(self.ctx.suffixes, entry.index, outcome)
        this.stats["reclassified"] += record["extended"]
        if telemetry != b"\n":
            this.undecoded[entry.index] = telemetry
        try:
            this.finish(entry, outcome, [])
        except Exception as exc:  # noqa: BLE001 - re-raised after the pass
            self.held = exc
            self.abandon()

    def abandon(self) -> None:
        """Stop forking; kill and reap whatever is still running."""
        self.uninstall()
        while self.inflight:
            fd, (_, pid) = self.inflight.popitem()
            os.close(fd)
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


# ---------------------------------------------------------------------------
# what the recording pass returns into
# ---------------------------------------------------------------------------
def _at_deadline(report: Any) -> Optional[float]:
    """``run_workload``'s continuation seam: only a child's run extends."""
    judge = _ROLE.get("judge")
    return judge.at_deadline(report) if judge is not None else None


def _resumer_result(report: Any, ctx: ExecContext) -> Dict[str, Any]:
    """Judge the finished suffix exactly as run_one_injection would; the
    point's record, plus whether its run was extended."""
    judge: _Judge = _ROLE["judge"]
    outcome = judge.finish(report)
    outcome.wall_seconds = _wallclock.perf_counter() - _ROLE["wall0"]
    return {**encode_record(judge.index, outcome), "extended": judge.extended}


def _ship(reply: Dict[str, Any], telemetry: Optional[Payload]) -> None:
    """A child's last words: a telemetry line (empty unobserved), then the
    reply — last, so that a reply read whole vouches for what precedes it."""
    try:
        with os.fdopen(_ROLE["out"], "wb") as pipe:
            if telemetry is not None:
                pipe.write(json.dumps(telemetry).encode("utf-8"))
            pipe.write(b"\n" + json.dumps(reply).encode("utf-8"))
    except OSError:
        pass  # the campaign process is gone; so is anyone who cared


# ---------------------------------------------------------------------------
# the campaign process
# ---------------------------------------------------------------------------
class SnapshotRunner:
    """The snapshot-resume body of the executor's runner seam."""

    def __init__(self) -> None:
        #: snapshots resumed concurrently, once a round has run
        self.workers = 1
        #: the engine's work across all rounds (``CampaignResult.
        #: snapshot_stats``): recording runs, resumed (own suffix) /
        #: never-fired / fallback point counts, how many resumes extended
        #: their run (``reclassified``)
        self.stats: Dict[str, Any] = dict.fromkeys((
            "recording_runs", "resumed_points", "never_fired", "reclassified",
            "fallback_points"), 0)

    def run(self, ctx: ExecContext, indices: List[int],
            sink: CampaignJournal) -> None:
        self.workers = ctx.workers
        this = _Round(ctx, sink, self.stats)
        # one recording pass per scale group — scale changes the cluster
        # size, so points of different scales cannot share a prefix; points
        # of the same scale all fork off the single shared timeline
        groups: Dict[int, List[_ArmedPoint]] = {}
        for index in indices:
            dpoint = ctx.points[index]
            if isinstance(dpoint, DynamicCrashPoint):
                groups.setdefault(dpoint.scale, []).append(_ArmedPoint(index, dpoint))
            else:  # no other plan entry files a suffix (see the executor)
                this.fallback(_ArmedPoint(index, dpoint))
        for scale, entries in groups.items():
            this.run_group(entries, scale)
        # the round's last fork is behind us: nobody inherits these
        while this.undecoded:
            index, telemetry = this.undecoded.popitem()
            sink.payloads[index].append(json.loads(telemetry))


class _Round:
    """One :meth:`SnapshotRunner.run` call: where its finished points land."""

    def __init__(self, ctx: ExecContext, sink: CampaignJournal,
                 stats: Dict[str, Any]):
        self.ctx = ctx
        self.sink = sink
        self.stats = stats
        #: the campaign's own context, which ``on_outcome`` runs under
        self.ambient = get_obs()
        #: point index -> the telemetry its child shipped, as received
        self.undecoded: Dict[int, bytes] = {}

    def finish(self, entry: _ArmedPoint, outcome: InjectionOutcome,
               payloads: List[Payload]) -> None:
        with self.ambient:  # not the recording pass's private context
            self.sink.record(entry.index, outcome, payloads)

    def fallback(self, entry: _ArmedPoint) -> None:
        """In-process replay of one point: any child-side failure lands
        here, and so does every plan entry that is not one crash point."""
        self.stats["fallback_points"] += 1
        self.finish(entry, *run_point(self.ctx, entry.index))

    def run_group(self, entries: List[_ArmedPoint], scale: int) -> None:
        ctx, stats = self.ctx, self.stats
        watcher = _SnapshotWatcher(entries, self)
        stats["recording_runs"] += 1
        try:
            report, private = self._record(watcher, scale)
            while watcher.inflight and watcher.held is None:
                watcher.collect()
        finally:
            watcher.abandon()  # a no-op unless the sink raised or we did
        if watcher.held is not None:
            raise watcher.held
        if report is None:
            # the recording pass itself failed: replay what it left undone
            for entry in entries:
                if entry.index not in self.sink.outcomes:
                    self.fallback(entry)
            return
        unfired = [entry for entry in entries if not entry.recorded]
        if unfired:
            # For points that never fired, the injection-free run *is* the
            # test run (each replay run of a never-firing point replays
            # exactly this run, under a trigger that sees no hit) — judged
            # once, under the first such point's trigger, and cloned under
            # each point's own identity.  ``wall_seconds`` stays 0.0: these
            # points consumed no wall time of their own beyond the pass.
            with private:  # the oracles count under the run's context
                basis = _judged(
                    ctx.system, unfired[0].dpoint, unfired[0].trigger,
                    evaluate_run(report, ctx.baseline), ctx.matcher, report)
            shared = [_telemetry(private)] if ctx.observed else []
            for entry in unfired:
                stats["never_fired"] += 1
                self.finish(entry, _clone_for(basis, entry.dpoint), list(shared))
        for entry in watcher.failed:
            self.fallback(entry)

    def _record(self, watcher: _SnapshotWatcher,
                scale: int) -> Tuple[Any, Observability]:
        """The injection-free recording pass; ``(None, _)`` if it failed.

        It runs where every replay run does — here, under the same fresh
        private context :func:`run_point` uses — so a child inherits the
        prefix's spans/metrics and appends its suffix: exactly the
        telemetry one full replay run of its point would have produced.
        Children come back out of ``run_workload`` here too, with
        ``_ROLE`` filled, and go no further.
        """
        ctx = self.ctx
        private = Observability() if ctx.observed else NULL_OBS
        try:
            with private:
                report = run_workload(
                    ctx.system, seed=ctx.cfg.seed, config=ctx.config, scale=scale,
                    before_run=watcher.arm, cooldown=COOLDOWN, extend=_at_deadline,
                )
                if _ROLE:
                    _ship(_resumer_result(report, ctx),
                          _telemetry(private) if ctx.observed else None)
            return report, private
        except Exception:  # noqa: BLE001 - degrades to replay
            # (a child's whole report is the EOF of its unwritten pipe)
            return None, private
        finally:
            if _ROLE:
                os._exit(0)
            watcher.uninstall()
