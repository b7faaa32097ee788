"""The snapshot executor's contract: snapshot == replay, only faster.

A campaign run with ``CampaignConfig(execution="snapshot")`` forks the
recording pass at each point's first-fire instant and executes only the
suffix per injection.  It must be outcome- and report-identical to the
replay executor — same outcomes in point order, same verdicts and matched
bugs, same diagnoses, same merged metrics and re-stitched trace — with
only wall-clock times allowed to differ.  Any child-side failure must
degrade to an in-process replay of the affected point(s), never to a
different answer.  Plus the small-campaign degrade rule: a replay
campaign with fewer than ``workers * 2`` pending points runs in-process.
"""

import dataclasses
import errno
import os
import random
import signal

import pytest

from repro.core.injection import CampaignConfig, outcome_digest
from repro.durable import WriteAheadLog
from repro.obs import Observability, get_obs
from tests.conftest import N_CHEAP, campaign, outcome_dicts
from tests.conftest import prepared, reference, span_dicts

N_POINTS = 12


def _campaign(system_name="yarn", n_points=N_POINTS, **knobs):
    return campaign(system_name, n_points, **knobs)


def _replay(n_points=N_POINTS):
    """Outcome dicts of the plain yarn replay campaign's first points."""
    return outcome_dicts(reference("yarn"))[:n_points]


def _no_child_left_unreaped():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


# ----------------------------------------------------------------------
# equivalence: snapshot is byte-identical to replay
# ----------------------------------------------------------------------

def test_snapshot_identical_to_replay_with_obs():
    rep, obs_rep = reference("yarn", traced=True, n_points=N_POINTS)
    obs_snap = Observability()
    snap = _campaign(obs=obs_snap, execution="snapshot")

    assert rep.execution == "replay" and snap.execution == "snapshot"
    assert outcome_dicts(snap) == outcome_dicts(rep)
    assert snap.sim_seconds == rep.sim_seconds
    # merged metrics are exactly the replay snapshot
    assert obs_snap.metrics.snapshot() == obs_rep.metrics.snapshot()
    # re-stitched trace: same spans, same ids, same parentage, same order
    assert span_dicts(obs_snap) == span_dicts(obs_rep)
    assert obs_snap.tracer.dropped == obs_rep.tracer.dropped
    assert [d.to_dict() for d in obs_snap.diagnoses] == \
        [d.to_dict() for d in obs_rep.diagnoses]


def test_snapshot_identical_on_hbase():
    rep = reference("hbase")
    snap = _campaign("hbase", n_points=10, execution="snapshot")
    assert outcome_dicts(snap) == outcome_dicts(rep)[:10]


def test_snapshot_reports_engine_stats():
    snap = _campaign(execution="snapshot")
    rep = _campaign(n_points=2)
    stats = snap.snapshot_stats
    assert stats is not None and rep.snapshot_stats is None
    # a fork either ran its own suffix or took an earlier fork's
    accounted = (stats["resumed_points"] + snap.reused
                 + stats["never_fired"] + stats["fallback_points"])
    assert accounted == N_POINTS
    assert snap.reused == sum(o.reused_from is not None
                              for o in reference("yarn").outcomes[:N_POINTS])
    # the snapshot forest: ONE recording pass per scale group, however
    # many points the group holds — never a per-chunk re-record from t=0
    system, _analysis, profile, _ = prepared("yarn")
    scales = {p.scale for p in profile.dynamic_points[:N_POINTS]}
    assert stats["recording_runs"] == len(scales)
    assert stats["fallback_points"] == 0
    assert stats["reclassified"] >= 1


def test_snapshot_with_workers_matches_single():
    two = _campaign(n_points=N_CHEAP, execution="snapshot", workers=2)
    assert outcome_dicts(two) == _replay(N_CHEAP)
    assert two.workers_realized == 2


def test_snapshot_reuses_the_suffix_of_a_point_sharing_its_fire_event():
    """Two points firing at the same access event fork twice; the second
    child's fire has the first one's suffix key, so it stops there."""
    system, analysis, profile, baseline = prepared("yarn")
    dpoint = profile.dynamic_points[0]
    points = [dpoint, dpoint]  # same point twice: same first-fire event
    snap = _campaign(points=points, execution="snapshot")
    assert outcome_dicts(snap) == _replay(1) * 2
    assert [o.reused_from for o in snap.outcomes] == [None, 0]
    assert snap.reused == 1
    assert snap.snapshot_stats["resumed_points"] == 1


@pytest.mark.parametrize("system_name", ["hdfs", "zookeeper", "cassandra", "kube"])
def test_generated_point_multisets_match_replay(system_name):
    """Duplicates and never-fired points, which no profiled campaign holds.

    Every profiled point fires and no two share a fire event, so a
    generated multiset reaches what profiles do not: duplicates (reused
    forks of their first occurrence when unobserved) and "ghosts" whose
    call stack matches no event (the recording run *is* their test run:
    judged once, cloned per point, telemetry shared).
    """
    profiled = prepared(system_name)[2].dynamic_points
    rng = random.Random(system_name)
    real = [rng.choice(profiled) for _ in range(6)]
    real += rng.sample(real, 2)  # at least two duplicates
    ghosts = [dataclasses.replace(rng.choice(profiled), stack=("nowhere.f:1",))
              for _ in range(3)]
    points = real + ghosts
    rng.shuffle(points)
    distinct = len(set(real))

    for observed in (False, True):
        def run(**knobs):
            if not observed:
                return _campaign(system_name, points=points, **knobs), None
            obs = Observability()
            with obs:
                return _campaign(system_name, points=points, obs=obs, **knobs), obs

        rep, obs_rep = run()
        assert [o.fired for o in rep.outcomes] == [p in real for p in points]
        for workers in (1, 2, 3):
            snap, obs_snap = run(execution="snapshot", workers=workers)
            assert outcome_dicts(snap) == outcome_dicts(rep)
            assert outcome_digest(snap.outcomes) == outcome_digest(rep.outcomes)
            stats = snap.snapshot_stats
            assert stats["never_fired"] == len(ghosts)
            assert stats["fallback_points"] == 0
            assert (stats["resumed_points"] + snap.reused + stats["never_fired"]
                    == len(points))
            for outcome in snap.outcomes:
                if outcome.reused_from is not None:
                    assert snap.outcomes[outcome.reused_from].reused_from is None
            # observed, every duplicate runs its own suffix: its spans
            # carry its own name
            if observed:
                assert snap.reused == 0
                assert stats["resumed_points"] == len(real)
            elif workers == 1:
                # each fork is collected before the next one forks, so it
                # reuses what replay does; siblings in flight share nothing
                assert snap.reused == rep.reused >= len(real) - distinct
                first = {}
                for index, (point, outcome) in enumerate(zip(points, snap.outcomes)):
                    if point in real and point in first:
                        # a duplicate takes its first occurrence's suffix
                        # (or the one its first occurrence took)
                        earlier = snap.outcomes[first[point]].reused_from
                        assert outcome.reused_from == (
                            first[point] if earlier is None else earlier)
                    first.setdefault(point, index)
            if observed:
                assert obs_snap.metrics.snapshot() == obs_rep.metrics.snapshot()
                assert span_dicts(obs_snap) == span_dicts(obs_rep)
                assert [d.to_dict() for d in obs_snap.diagnoses] == \
                    [d.to_dict() for d in obs_rep.diagnoses]


# ----------------------------------------------------------------------
# journal: kill mid-campaign, resume — across execution modes too
# ----------------------------------------------------------------------

def test_snapshot_journal_resume_after_partial_run(tmp_path):
    journal = tmp_path / "campaign.jsonl"

    full = _campaign(n_points=N_CHEAP, journal_path=str(journal),
                     execution="snapshot")
    assert outcome_dicts(full) == _replay(N_CHEAP)
    lines = journal.read_text().splitlines()
    assert len(lines) == N_CHEAP + 1  # meta + one line per point

    # simulate a kill after 4 completed points, mid-write of the 5th
    journal.write_text("\n".join(lines[:5]) + "\n" + lines[5][:37])

    resumed = _campaign(n_points=N_CHEAP, journal_path=str(journal),
                        execution="snapshot")
    assert resumed.resumed == 4
    assert outcome_dicts(resumed) == _replay(N_CHEAP)


def test_journal_crosses_execution_modes(tmp_path):
    """The journal pins *what* was computed, not *how* — a campaign
    interrupted under replay resumes under snapshot (and vice versa)."""
    journal = tmp_path / "campaign.jsonl"
    _campaign(n_points=N_CHEAP, journal_path=str(journal))
    lines = journal.read_text().splitlines()
    journal.write_text("\n".join(lines[:7]) + "\n")  # meta + 6 outcomes

    resumed = _campaign(n_points=N_CHEAP, journal_path=str(journal),
                        execution="snapshot")
    assert resumed.resumed == 6
    # ``reused`` is campaign-wide: count the forks' reuse after the cut
    forked_reused = sum(o.reused_from is not None for o in resumed.outcomes[6:])
    assert (resumed.snapshot_stats["resumed_points"] + forked_reused
            == N_CHEAP - 6)
    assert outcome_dicts(resumed) == _replay(N_CHEAP)


# ----------------------------------------------------------------------
# degradation: child failures fall back to in-process replay
# ----------------------------------------------------------------------

def test_snapshot_falls_back_per_point_on_resumer_error(monkeypatch):
    import repro.core.injection.snapshot as snapshot_mod

    def _boom(report, state):
        raise RuntimeError("resumer judged nothing")

    # children inherit the patched module through fork
    monkeypatch.setattr(snapshot_mod, "_resumer_result", _boom)
    snap = _campaign(n_points=4, execution="snapshot")
    assert outcome_dicts(snap) == _replay(4)
    assert snap.snapshot_stats["fallback_points"] == 4
    assert snap.snapshot_stats["resumed_points"] == 0


def test_snapshot_survives_resumers_killed_mid_suffix(monkeypatch):
    import repro.core.injection.snapshot as snapshot_mod

    judged = snapshot_mod._resumer_result

    def _die_on_odd_points(report, ctx):
        if snapshot_mod._ROLE["entry"].index % 2:
            # no reply, no exit status anyone reads: the campaign process
            # learns of it from the result pipe's EOF alone
            os.kill(os.getpid(), signal.SIGKILL)
        return judged(report, ctx)

    monkeypatch.setattr(snapshot_mod, "_resumer_result", _die_on_odd_points)
    snap = _campaign(n_points=4, execution="snapshot")
    assert outcome_dicts(snap) == _replay(4)
    assert snap.snapshot_stats["fallback_points"] == 2
    # points 1-3 fire into point 0's suffix: 2 is a reused fork, and the
    # replays of 1 and 3 reuse it from the same map
    assert snap.snapshot_stats["resumed_points"] == 1
    assert [o.reused_from for o in snap.outcomes] == [None, 0, 0, 0]
    _no_child_left_unreaped()


def test_snapshot_falls_back_whole_chunk_when_recorder_dies(monkeypatch):
    import repro.core.injection.snapshot as snapshot_mod

    def _boom(*args, **kwargs):
        raise RuntimeError("no recording pass today")

    monkeypatch.setattr(snapshot_mod, "run_workload", _boom)
    snap = _campaign(n_points=4, execution="snapshot")
    assert outcome_dicts(snap) == _replay(4)
    assert snap.snapshot_stats["fallback_points"] == 4
    assert snap.snapshot_stats["recording_runs"] == 1


def _fork_fails_from(monkeypatch, nth):
    """``os.fork`` raises EAGAIN from its ``nth`` call on (children count on)."""
    real_fork, calls = os.fork, [0]

    def fork():
        calls[0] += 1
        if calls[0] >= nth:
            raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")
        return real_fork()

    monkeypatch.setattr(os, "fork", fork)


def test_failed_resumer_fork_is_a_fallback_not_a_simulated_crash(monkeypatch):
    forked = _campaign(n_points=8, execution="snapshot")
    fired = forked.snapshot_stats["resumed_points"] + forked.reused
    # the first point's child forks; every later snapshot cannot
    _fork_fails_from(monkeypatch, 2)
    snap = _campaign(n_points=8, execution="snapshot")
    # the fork fails inside a node handler: the recording run must go on
    # as if the hook had not been there, not crash the handler's node
    assert outcome_dicts(snap) == _replay(8)
    assert snap.snapshot_stats["resumed_points"] == 1
    assert snap.snapshot_stats["fallback_points"] == fired - 1
    assert snap.snapshot_stats["never_fired"] == forked.snapshot_stats["never_fired"]
    # the replays reuse from the map the one child filled
    assert snap.reused == forked.reused
    _no_child_left_unreaped()


def test_failed_recorder_fork_degrades_the_group_to_replay(monkeypatch):
    """Every fork fails: the recording pass still runs — it needs none —
    and every fired point is replayed after it."""
    forked = _campaign(n_points=8, execution="snapshot")
    _fork_fails_from(monkeypatch, 1)
    snap = _campaign(n_points=8, execution="snapshot")
    assert outcome_dicts(snap) == _replay(8)
    assert snap.snapshot_stats["resumed_points"] == 0
    assert (snap.snapshot_stats["fallback_points"]
            == forked.snapshot_stats["resumed_points"] + forked.reused)
    _no_child_left_unreaped()


@pytest.mark.parametrize("workers", [1, 2])
def test_raising_on_outcome_aborts_after_the_checkpoints_seen(tmp_path, workers):
    """The sink runs inside the recording pass — inside a node handler,
    which would swallow the hook's exception as a simulated abort."""
    journal = tmp_path / "campaign.jsonl"
    obs, calls = Observability(), []

    def abort(index, outcome):
        calls.append(index)
        assert get_obs() is obs  # not the recording pass's private context
        if len(calls) == 3:
            raise RuntimeError("stop at the third checkpoint")

    with obs, pytest.raises(RuntimeError, match="third checkpoint"):
        _campaign(n_points=N_CHEAP, obs=obs, journal_path=str(journal),
                  execution="snapshot", workers=workers, on_outcome=abort)
    assert len(calls) == 3
    assert [rec["index"] for rec in WriteAheadLog(journal).replay()[1:]] == calls
    _no_child_left_unreaped()
    # the journal it left is a clean checkpoint: the campaign resumes
    resumed = _campaign(n_points=N_CHEAP, journal_path=str(journal),
                        execution="snapshot", workers=workers)
    assert resumed.resumed == 3
    assert outcome_dicts(resumed) == _replay(N_CHEAP)


# ----------------------------------------------------------------------
# config surface
# ----------------------------------------------------------------------

def test_campaign_config_rejects_unknown_execution():
    with pytest.raises(ValueError, match="execution"):
        CampaignConfig(execution="teleport")


def test_small_replay_campaign_degrades_to_in_process():
    # 4 points < workers * 2: pool startup would dominate (Table 11's
    # zookeeper/cassandra rows), so the campaign runs in-process...
    degraded = _campaign(n_points=4, workers=4)
    assert degraded.workers == 4  # the *requested* pool size is kept
    assert degraded.workers_realized == 1
    # ...and at workers * 2 points the pool is worth its startup
    pooled = _campaign(n_points=8, workers=4)
    assert pooled.workers_realized == 4
    assert outcome_dicts(pooled)[:4] == outcome_dicts(degraded)
