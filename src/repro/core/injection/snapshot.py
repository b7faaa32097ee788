"""Snapshot-and-resume execution of injection campaigns.

The replay executor re-runs the deterministic prefix of every injection:
each of the campaign's N test runs simulates from t=0 even though, until
the armed crash point first fires, the run is event-for-event identical
to the injection-free recording of the same seed/scale (the determinism
contract pinned by the kernel and campaign test suites).  This module
removes that redundancy: **one recording pass per (scale, chunk) group
snapshots the whole simulated world at each point's first-fire instant,
and every injection then resumes from its snapshot and executes only its
suffix** — O(1 recording run + sum of suffixes) instead of O(N full
runs).

A Python-level ``deepcopy``/restore of the world is unsound here: queued
:class:`~repro.sim.events.Event` callbacks are closures over live node,
network, and workload objects, so reinstalling a saved event queue into a
world whose objects have moved on replays the wrong state.  The snapshot
is therefore the operating system's: ``os.fork()`` at the fire instant
captures loop, cluster, RNG, logs, meta-info store, and armed trigger in
one copy-on-write image.  A world is rebuilt by replay or copied by fork;
nothing restores one in process.

Process tree (one per group of same-scale points)::

    campaign parent
      └─ recorder      one injection-free recording run; at each point's
         │             first matching access event it forks that point's
         │             resumer and keeps simulating (it never injects)
         ├─ resumer    the world frozen at point P's fire instant, parked
         │             on a command FIFO; on the parent's go it fires P's
         │             trigger against the inherited world, lets the
         │             already-in-flight run_workload() finish — the
         │             suffix — and ships the outcome to the parent
         └─ ...

The parked resumers are a **snapshot forest** over one timeline: each is
a copy-on-write fork of the recorder at its point's fire instant, so a
snapshot taken at t_k physically shares (as COW pages) the entire prefix
that every earlier snapshot captured — points fork from the latest
earlier world state rather than anyone re-simulating from t=0.  One
recording pass per scale group therefore suffices for arbitrarily many
points (scale kernel, DESIGN.md "Scale kernel"): command/result
transport is named FIFOs on disk, opened by the parent only while a
point is actually being driven, so parent fd usage is O(workers) and
recorder fd usage is O(1) — no per-point pipe pairs, hence no chunk
ceiling and no per-chunk re-recording of the shared prefix.

A snapshot serves exactly one resume.  A flagged hang needs no second
one: the resumer judges its suffix through the same
:class:`~repro.core.injection.campaign._Judge` the replay path uses, and
``run_workload``'s continuation seam drives the run it already holds on
to the extended deadline (paper Section 4.1.3).  A resumer that dies —
however hard — closes its result FIFO, which the parent reads as EOF and
answers with an in-process replay of that point.  Points whose trigger
never fires during the recording pass need no resume at all: for them
the recording run *is* the test run, and its verdict/diagnosis/telemetry
are shared.

Equivalence (asserted end-to-end by ``tests/test_snapshot_campaign.py``):
outcomes, verdicts, matched bugs, diagnoses, merged metrics, and
re-stitched spans are identical to the replay executor's, because the
recording prefix is byte-identical to each replay run's prefix and the
resumer executes the identical firing code (:meth:`Trigger.fire`) at the
identical event.  Only ``wall_seconds`` differs — it is what this mode
exists to shrink.

All transport is newline-delimited JSON over pipes (outcomes round-trip
through the same ``to_dict``/``from_dict`` pair the journal uses).  Any
child-side failure degrades that point (or chunk) to an in-process replay
via :func:`~repro.core.injection.executor.run_point` — snapshot mode
never changes *what* is computed, only *how fast*.

To the executor this is just the other body of its runner seam
(:class:`SnapshotRunner`): same context, same indices into the campaign's
point list, same sink, same ``{index: (outcome, payloads)}`` back.
"""

from __future__ import annotations

import errno
import fcntl
import json
import os
import select
import shutil
import signal
import tempfile
import time as _wallclock
from typing import Any, Dict, List, Optional

from repro.cluster.state import BUS, AccessEvent
from repro.core.injection.campaign import (
    COOLDOWN,
    InjectionOutcome,
    _arm,
    _clone_for,
    _Judge,
    _judged,
)
from repro.core.injection.executor import (
    CampaignJournal,
    ExecContext,
    Payload,
    Results,
    _telemetry,
    run_point,
)
from repro.core.injection.online_log import OnlineLogAgent
from repro.core.injection.oracles import evaluate_run
from repro.core.injection.trigger import Trigger, point_matches
from repro.obs import Observability
from repro.systems.base import run_workload

#: how long the parent retries a FIFO rendezvous (a resumer forked
#: mid-recording microseconds away from its command-FIFO open) before it
#: degrades the point to an in-process replay
_ATTACH_RETRIES = 100
_ATTACH_INTERVAL = 0.05

#: filled in a resumer child when the parent's go arrives (``entry``,
#: ``judge``, ``wall0``); empty everywhere else.  The recording pass's
#: code below the hook checks it to learn which process it woke up in.
_ROLE: Dict[str, Any] = {}


# ---------------------------------------------------------------------------
# newline-delimited JSON over raw pipe fds
# ---------------------------------------------------------------------------
def _close_quiet(fd: Optional[int]) -> None:
    if fd is None:
        return
    try:
        os.close(fd)
    except OSError:
        pass


def _write_json_fd(fd: int, obj: Dict[str, Any]) -> None:
    data = (json.dumps(obj) + "\n").encode("utf-8")
    while data:
        try:
            written = os.write(fd, data)
        except BrokenPipeError:
            return  # the reader died; its waitpid/fallback path handles it
        data = data[written:]


def _read_json_fd(fd: int, buf: bytearray) -> Optional[Dict[str, Any]]:
    """Blocking read of one JSON line; ``None`` on EOF before a full line."""
    while True:
        newline = buf.find(b"\n")
        if newline >= 0:
            line = bytes(buf[:newline])
            del buf[: newline + 1]
            return json.loads(line.decode("utf-8"))
        chunk = os.read(fd, 65536)
        if not chunk:
            return None
        buf.extend(chunk)


def _read_reply(fd: int, buf: bytearray) -> Dict[str, Any]:
    """A child's reply, with EOF and garbage both downgraded to errors."""
    try:
        reply = _read_json_fd(fd, buf)
    except (ValueError, OSError) as exc:
        return {"status": "error", "error": f"unreadable reply: {exc}"}
    if reply is None:
        return {"status": "error", "error": "result pipe closed"}
    return reply


# ---------------------------------------------------------------------------
# per-point bookkeeping
# ---------------------------------------------------------------------------
class _ArmedPoint:
    """One pending point's FIFOs, trigger, and in-flight protocol state.

    The FIFO pair exists as paths from group setup; file descriptors on
    them open lazily — the resumer opens its command end at birth and its
    result end when the go arrives, the parent opens both only while
    this point is being driven.
    """

    __slots__ = (
        "index", "dpoint", "trigger", "recorded", "driven",
        "cmd_path", "res_path", "cmd_fd", "res_fd", "res_w", "res_buf",
    )

    def __init__(self, index: int, dpoint: Any):
        self.index = index
        self.dpoint = dpoint
        self.trigger: Optional[Trigger] = None
        #: a resumer was forked for this point during the recording pass
        self.recorded = False
        #: the parent finished driving (or falling back) this point
        self.driven = False
        self.cmd_path = ""  # resumer waits for its go here
        self.res_path = ""  # parent reads the result here
        self.cmd_fd: Optional[int] = None  # parent's open command end
        self.res_fd: Optional[int] = None  # parent's open result end
        self.res_w: Optional[int] = None  # resumer's result end
        self.res_buf = bytearray()


def _attach(entry: _ArmedPoint) -> bool:
    """Open a parked resumer's FIFOs from the parent; False degrades to replay.

    Result end first (non-blocking read opens always succeed on a FIFO),
    then the command end: a non-blocking write open succeeds exactly when
    the resumer is at — or blocked in — its read open, which on Linux
    counts as a present reader, completing the rendezvous without either
    side ever blocking indefinitely.  The short retry loop covers the
    window between the resumer's fork and its command-FIFO open.
    """
    try:
        res_fd = os.open(entry.res_path, os.O_RDONLY | os.O_NONBLOCK)
    except OSError:
        return False
    cmd_fd: Optional[int] = None
    for _ in range(_ATTACH_RETRIES):
        try:
            cmd_fd = os.open(entry.cmd_path, os.O_WRONLY | os.O_NONBLOCK)
            break
        except OSError as exc:
            if exc.errno != errno.ENXIO:
                break
            _wallclock.sleep(_ATTACH_INTERVAL)
    if cmd_fd is None:
        _close_quiet(res_fd)
        return False
    for fd in (res_fd, cmd_fd):  # back to blocking I/O for the protocol
        flags = fcntl.fcntl(fd, fcntl.F_GETFL)
        fcntl.fcntl(fd, fcntl.F_SETFL, flags & ~os.O_NONBLOCK)
    entry.res_fd = res_fd
    entry.cmd_fd = cmd_fd
    return True


def _dismiss(entry: _ArmedPoint, resumer_pid: Optional[int]) -> None:
    """Release an undriven resumer: open-and-close its command FIFO.

    The resumer reads EOF and exits.  If the rendezvous never succeeds
    (resumer wedged before its open, or long gone) it is killed outright
    so the recorder's reap loop — and the parent's waitpid on the
    recorder — cannot hang on it.
    """
    for _ in range(_ATTACH_RETRIES):
        try:
            fd = os.open(entry.cmd_path, os.O_WRONLY | os.O_NONBLOCK)
        except FileNotFoundError:
            return
        except OSError as exc:
            if exc.errno != errno.ENXIO:
                return
            if resumer_pid is None:
                return
            _wallclock.sleep(_ATTACH_INTERVAL)
            continue
        os.close(fd)
        return
    if resumer_pid is not None:
        try:
            os.kill(resumer_pid, signal.SIGKILL)
        except OSError:
            pass


class _SnapshotWatcher:
    """The recording pass's access-bus hook: all pending points at once.

    Where the replay path installs one :class:`Trigger` that fires, this
    installs one hook that *never injects*: at each point's first matching
    event it forks that point's resumer, then lets the recording run
    continue unperturbed — also when the fork fails: the hook runs inside
    a node handler, so an error of its own must never reach the simulated
    world.  Matching reuses the trigger's own :func:`point_matches`, so
    "the event the recording pass froze on" is exactly "the event the
    replay trigger would fire on".
    """

    def __init__(self, entries: List[_ArmedPoint], ctx: ExecContext):
        self.entries = entries
        self.ctx = ctx
        self.fire_order: List[int] = []
        #: point index -> resumer pid, shipped to the parent so it can
        #: reap a resumer that never reached its FIFO rendezvous; a fired
        #: primary missing here has no snapshot (its fork failed)
        self.resumer_pids: Dict[int, int] = {}
        #: alias point index -> primary point index (same fire event, so
        #: a byte-identical suffix; only built when running unobserved)
        self.aliases: Dict[int, int] = {}
        self.agent: Optional[OnlineLogAgent] = None
        self.rec_w: Optional[int] = None
        self._installed = False

    # -- before_run hook: one store/agent feeds *all* armed points, and
    # none of their triggers is installed -------------------------------
    def arm(self, cluster: Any, workload: Any) -> None:
        cfg = self.ctx.cfg
        self.agent, center = _arm(
            cluster, self.ctx.analysis, cfg.wait, cfg.random_fallback)
        for entry in self.entries:
            entry.trigger = Trigger(entry.dpoint, center)
        self.install()

    def install(self) -> None:
        BUS.capture_stacks = True
        BUS.add_hook(self._hook)
        self._installed = True

    def uninstall(self) -> None:
        if self._installed:
            BUS.remove_hook(self._hook)
            self._installed = False
            if not BUS.enabled:
                BUS.capture_stacks = False

    # ------------------------------------------------------------------
    def _hook(self, event: AccessEvent) -> None:
        matched = [
            entry for entry in self.entries
            if not entry.recorded and point_matches(entry.dpoint, event)
        ]
        if matched:
            for entry in matched:
                entry.recorded = True
                self.fire_order.append(entry.index)
            if self.ctx.observed:
                # every point resumes itself: the injection span names
                # the point, so aliased points would ship a payload
                # carrying the primary's name
                primaries = matched
            else:
                # points firing at the *same* access event with the same
                # op perform the same injection on the same world — their
                # suffixes are byte-identical, so one resume serves all;
                # the parent clones the outcome per alias, swapping only
                # the point-identity fields
                primaries = matched[:1]
                for alias in matched[1:]:
                    self.aliases[alias.index] = primaries[0].index
            for entry in primaries:
                if self._park(entry):
                    # resumer, woken by the parent: inject here and let the
                    # inherited run_workload() call stack finish the suffix
                    self._resume(entry, event)
                    return
        if all(entry.recorded for entry in self.entries):
            # every snapshot is taken: nobody consumes access events for
            # the rest of the recording run, so stop paying for their
            # construction (emission is observation-only — bus state
            # never influences how the simulation evolves)
            self.uninstall()

    def _park(self, entry: _ArmedPoint) -> bool:
        """Fork the point's snapshot; True only in the child, once resumed."""
        try:
            pid = os.fork()
        except OSError:
            # no snapshot (process limit, memory): the world goes on
            # untouched and the parent, seeing no pid, replays the point
            return False
        if pid != 0:
            self.resumer_pids[entry.index] = pid
            return False
        # resumer: the only inherited fd not ours is the recorder summary
        # pipe — drop it so the parent sees EOF if the recorder dies.
        # Transport is by FIFO path from here on: the command end opens
        # now (blocking until the parent attaches or dismisses), the
        # result end once the go arrives — from then on the parent reads
        # EOF exactly when this process is gone, whatever killed it.
        _close_quiet(self.rec_w)
        self.rec_w = None
        cmd_fd = os.open(entry.cmd_path, os.O_RDONLY)
        if _read_json_fd(cmd_fd, bytearray()) is None:
            os._exit(0)  # dismissed: the parent is done with this snapshot
        entry.res_w = os.open(entry.res_path, os.O_WRONLY)
        _ROLE["entry"] = entry
        _ROLE["wall0"] = _wallclock.perf_counter()
        return True

    def _resume(self, entry: _ArmedPoint, event: AccessEvent) -> None:
        """Turn the frozen recording pass into this one point's test run.

        No hook is installed for the suffix: the match already happened —
        at this very event — during the recording pass, and a fired
        trigger stops listening anyway (:meth:`Trigger.fire`), so the
        suffix runs with the access bus disabled, exactly like replay's.
        """
        self.uninstall()
        ctx = self.ctx
        judge = _Judge(ctx.system, entry.dpoint, ctx.baseline, ctx.cfg, ctx.matcher)
        judge.trigger, judge.agent = entry.trigger, self.agent
        _ROLE["judge"] = judge
        judge.trigger.fire(event)


# ---------------------------------------------------------------------------
# recorder / resumer child
# ---------------------------------------------------------------------------
def _at_deadline(report: Any) -> Optional[float]:
    """``run_workload``'s continuation seam: only a resumer's run extends."""
    judge = _ROLE.get("judge")
    return judge.at_deadline(report) if judge is not None else None


def _recording_pass(
    watcher: _SnapshotWatcher,
    entries: List[_ArmedPoint],
    scale: int,
    ctx: ExecContext,
    out: Dict[str, Any],
) -> None:
    try:
        report = run_workload(
            ctx.system, seed=ctx.cfg.seed, config=ctx.config, scale=scale,
            before_run=watcher.arm, cooldown=COOLDOWN, extend=_at_deadline,
        )
    finally:
        watcher.uninstall()
    if _ROLE:
        out["result"] = _resumer_result(report, ctx)
        return
    # Recorder: for points that never fired, this injection-free run *is*
    # the test run (each replay run of a never-firing point replays
    # exactly this run, under a trigger that sees no hit) — judged once,
    # under the first such point's trigger; the parent clones the outcome
    # for the others.  ``wall_seconds`` stays 0.0: these points consumed
    # no wall time of their own beyond the shared recording pass.
    unfired = [entry for entry in entries if not entry.recorded]
    if unfired:
        out["unfired"] = {"outcome": _judged(
            ctx.system, unfired[0].dpoint, unfired[0].trigger,
            evaluate_run(report, ctx.baseline), ctx.matcher, report,
        ).to_dict()}


def _resumer_result(report: Any, ctx: ExecContext) -> Dict[str, Any]:
    """Judge the finished suffix exactly as run_one_injection would."""
    judge: _Judge = _ROLE["judge"]
    outcome = judge.finish(report)
    outcome.wall_seconds = _wallclock.perf_counter() - _ROLE["wall0"]
    return {
        "status": "done",
        "outcome": outcome.to_dict(),
        "extended": judge.extended,
    }


def _recorder_main(
    entries: List[_ArmedPoint],
    scale: int,
    rec_w: int,
    ctx: ExecContext,
) -> None:
    """Forked recorder body; every exit path is ``os._exit``.

    Children must never run the parent's atexit/flush machinery on
    inherited journal or stdio buffers, hence ``os._exit`` throughout.
    Resumers fork off inside the recording pass and come back out of it
    here too, with ``_ROLE`` filled.
    """
    obs = Observability() if ctx.observed else None
    watcher = _SnapshotWatcher(entries, ctx)
    watcher.rec_w = rec_w
    out: Dict[str, Any] = {}
    try:
        if obs is not None:
            # same fresh private context a replay pool worker runs under;
            # a resumer inherits the recording prefix's spans/metrics and
            # appends its suffix, which is exactly the telemetry one full
            # replay run of that point would have produced
            with obs:
                _recording_pass(watcher, entries, scale, ctx, out)
        else:
            _recording_pass(watcher, entries, scale, ctx, out)
    except BaseException as exc:  # noqa: BLE001 - shipped to the parent
        line = {"status": "error", "error": f"{type(exc).__name__}: {exc}"}
        _write_json_fd(_ROLE["entry"].res_w if _ROLE else rec_w, line)
        os._exit(1)
    payload = _telemetry(obs) if obs is not None else None
    if _ROLE:
        result = out["result"]
        result["payload"] = payload
        _write_json_fd(_ROLE["entry"].res_w, result)
        os._exit(0)
    summary: Dict[str, Any] = {
        "status": "ok",
        "fired": list(watcher.fire_order),
        "aliases": {str(i): p for i, p in watcher.aliases.items()},
        "resumers": {str(i): p for i, p in watcher.resumer_pids.items()},
    }
    if "unfired" in out:
        out["unfired"]["payload"] = payload
        summary["unfired"] = out["unfired"]
    _write_json_fd(rec_w, summary)
    _close_quiet(rec_w)
    # stay alive to reap the resumers (the undriven ones exit when the
    # parent dismisses them), so no zombies outlive the group
    while True:
        try:
            os.wait()
        except ChildProcessError:
            break
    os._exit(0)


# ---------------------------------------------------------------------------
# the campaign parent
# ---------------------------------------------------------------------------
class SnapshotRunner:
    """The snapshot-resume body of the executor's runner seam."""

    def __init__(self) -> None:
        #: snapshots resumed concurrently, once a round has run
        self.workers = 1
        #: the engine's work across all rounds (``CampaignResult.
        #: snapshot_stats``): recording runs, resumed / never-fired /
        #: aliased / fallback point counts, how many resumes extended
        #: their run (``reclassified``)
        self.stats: Dict[str, Any] = {
            "recording_runs": 0,
            "resumed_points": 0,
            "never_fired": 0,
            "aliased_points": 0,
            "reclassified": 0,
            "fallback_points": 0,
        }

    def run(self, ctx: ExecContext, indices: List[int],
            sink: CampaignJournal) -> Results:
        self.workers = ctx.workers
        this = _Round(ctx, sink, self.stats)
        # one recording pass per scale group — scale changes the cluster
        # size, so points of different scales cannot share a prefix; points
        # of the same scale all snapshot off the single shared timeline
        groups: Dict[int, List[_ArmedPoint]] = {}
        for index in indices:
            dpoint = ctx.points[index]
            groups.setdefault(dpoint.scale, []).append(_ArmedPoint(index, dpoint))
        for scale, entries in groups.items():
            this.run_group(entries, scale)
        return this.results


class _Round:
    """One :meth:`SnapshotRunner.run` call: where its finished points land."""

    def __init__(self, ctx: ExecContext, sink: CampaignJournal,
                 stats: Dict[str, Any]):
        self.ctx = ctx
        self.sink = sink
        self.stats = stats
        self.results: Results = {}

    def finish(self, entry: _ArmedPoint, outcome: InjectionOutcome,
               payloads: List[Optional[Payload]]) -> None:
        # children of an unobserved campaign ship ``payload: None``
        self.results[entry.index] = (
            outcome, [p for p in payloads if p is not None])
        self.sink.record(entry.index, outcome)

    def fallback(self, entry: _ArmedPoint) -> None:
        """In-process replay of one point (any child-side failure lands here)."""
        self.stats["fallback_points"] += 1
        self.finish(entry, *run_point(self.ctx, entry.index))

    def run_group(self, entries: List[_ArmedPoint], scale: int) -> None:
        stats = self.stats
        fifo_dir: Optional[str] = None
        rec_r = rec_w = recorder = None
        resumer_pids: Dict[int, int] = {}
        try:
            try:
                fifo_dir = tempfile.mkdtemp(prefix="crashtuner-snap-")
                for entry in entries:
                    entry.cmd_path = os.path.join(fifo_dir, f"cmd-{entry.index}")
                    entry.res_path = os.path.join(fifo_dir, f"res-{entry.index}")
                    os.mkfifo(entry.cmd_path)
                    os.mkfifo(entry.res_path)
                rec_r, rec_w = os.pipe()
                recorder = os.fork()
            except OSError as exc:
                # no recorder (process limit, full tmp): same as a dead one
                _close_quiet(rec_w)
                summary = {"status": "error", "error": str(exc)}
            else:
                if recorder == 0:
                    try:
                        _close_quiet(rec_r)
                        _recorder_main(entries, scale, rec_w, self.ctx)
                    finally:
                        os._exit(1)  # _recorder_main never returns normally
                _close_quiet(rec_w)
                stats["recording_runs"] += 1
                summary = _read_reply(rec_r, bytearray())
            if summary.get("status") != "ok":
                # the recording pass itself failed: replay the whole group
                for entry in entries:
                    self.fallback(entry)
                return
            fired = set(summary.get("fired", []))
            aliases = {int(i): p for i, p in summary.get("aliases", {}).items()}
            resumer_pids = {int(i): p for i, p in summary.get("resumers", {}).items()}
            unfired = [entry for entry in entries if entry.index not in fired]
            if unfired:
                # the recording run was their test run: one judged outcome,
                # cloned under each point's own identity
                shared = summary["unfired"]
                basis = InjectionOutcome.from_dict(shared["outcome"], unfired[0].dpoint)
                for entry in unfired:
                    stats["never_fired"] += 1
                    entry.driven = True  # no resumer: nothing to attach or dismiss
                    self.finish(entry, _clone_for(basis, entry.dpoint),
                                [shared.get("payload")])
            self.drive_resumers([e for e in entries
                                 if e.index in fired and e.index not in aliases],
                                resumer_pids)
            # aliased points fired at the same access event as their primary,
            # with the same op: the primary's resume already computed their
            # (byte-identical) run, so each alias is the primary's outcome
            # under its own identity.  Only built unobserved: no payloads.
            for entry in entries:
                if entry.index not in aliases:
                    continue
                entry.driven = True  # aliases never get resumers of their own
                stats["aliased_points"] += 1
                primary, _ = self.results[aliases[entry.index]]
                self.finish(entry, _clone_for(primary, entry.dpoint), [])
        finally:
            for entry in entries:
                _close_quiet(entry.cmd_fd)
                entry.cmd_fd = None
                _close_quiet(entry.res_fd)
                entry.res_fd = None
                if not entry.driven:
                    # releases the resumer if one exists (it may even when
                    # the summary carried no pids — a recording pass that died
                    # mid-run forked resumers first); ENXIO means none does
                    _dismiss(entry, resumer_pids.get(entry.index))
            _close_quiet(rec_r)
            if recorder is not None:
                os.waitpid(recorder, 0)
            if fifo_dir is not None:
                shutil.rmtree(fifo_dir, ignore_errors=True)

    def drive_resumers(self, entries: List[_ArmedPoint],
                       resumer_pids: Dict[int, int]) -> None:
        """Resume up to ``workers`` snapshots concurrently; collect as ready.

        A fired point the recorder reported no resumer for (its fork
        failed) is replayed at once rather than waited for.

        FIFO ends open per point at dispatch and close at collection, so the
        parent's fd footprint is 2 * inflight however many points the group
        holds — this is what lets one recording pass serve thousands.
        """
        stats = self.stats
        queue = list(entries)
        inflight: Dict[int, _ArmedPoint] = {}  # res_fd -> entry
        while queue or inflight:
            while queue and len(inflight) < self.ctx.workers:
                entry = queue.pop(0)
                if entry.index not in resumer_pids or not _attach(entry):
                    entry.driven = True
                    self.fallback(entry)
                    continue
                _write_json_fd(entry.cmd_fd, {})  # the go
                inflight[entry.res_fd] = entry
            if not inflight:
                continue
            ready, _, _ = select.select(list(inflight), [], [])
            for fd in ready:
                entry = inflight.pop(fd)
                # an error line, garbage, or the EOF of a resumer that
                # died mid-suffix all degrade the point to replay
                reply = _read_reply(fd, entry.res_buf)
                _close_quiet(entry.cmd_fd)
                entry.cmd_fd = None
                _close_quiet(entry.res_fd)
                entry.res_fd = None
                entry.driven = True
                if reply.get("status") != "done":
                    self.fallback(entry)
                    continue
                stats["resumed_points"] += 1
                stats["reclassified"] += bool(reply.get("extended"))
                self.finish(
                    entry,
                    InjectionOutcome.from_dict(reply["outcome"], entry.dpoint),
                    [reply.get("payload")])
