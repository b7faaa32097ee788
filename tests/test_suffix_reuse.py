"""Suffix reuse: a campaign computes each distinct suffix once.

A point whose actual fire repeats one an earlier run of the campaign
already went past — same action, target, instant and dispatched event,
or no target at all (:func:`repro.core.injection.campaign.suffix_key`) —
stops right after its fire and takes that run's judged outcome under its
own at-fire evidence (DESIGN.md "Suffix reuse"), in a replay run or in
a snapshot fork, which inherits the map as it stood when it forked.  An
observed campaign reuses nothing (the injection span names the point),
so it is the oracle: the pins of seeds 0-3 are its digests, and the
cells below that change a knob run it beside the reusing campaign.

``python -m tests.test_suffix_reuse`` (CI's ``suffix-reuse`` step) runs
the oracle live for six systems x seeds 0-7, against the replay and the
snapshot campaign and the replay campaign cut at half and resumed.
"""

import functools
import gc
import sys
import tempfile
from pathlib import Path

import pytest

from repro.api import (
    CampaignConfig,
    Observability,
    analyze_system,
    build_baseline,
    get_system,
    matcher_for_system,
    outcome_digest,
    profile_system,
    run_campaign,
)
from repro.cluster import Cluster
from repro.core.injection import campaign as campaign_mod
from repro.core.injection import run_one_injection
from repro.core.injection.campaign import suffix_key
from repro.core.injection.control_center import ControlCenter
from repro.core.report import format_summary
from repro.durable import WriteAheadLog, encode_frame
from repro.errors import NodeCrashedError
from repro.sim import SimLoop
from repro.systems import base as systems_base
from tests.conftest import PINS, prepared, reference

SYSTEMS = ("yarn", "hbase", "hdfs", "kube", "cassandra", "zookeeper")

#: points whose suffix another point of the seed-0 campaign computed
REUSED_AT_SEED_0 = {"yarn": 33, "hbase": 10, "hdfs": 5, "kube": 5,
                    "zookeeper": 0, "cassandra": 0}

HBASE_PATCHED = {"patched_bugs": frozenset(
    {"HBASE-22041", "HBASE-22017", "HBASE-21740"})}


def run(name, seed=0, observed=False, points=None, config=None,
        on_outcome=None, **knobs):
    """One campaign over ``name``'s points (phase 1 at ``seed``)."""
    _, analysis, profile, baseline = prepared(name, config, seed)
    return run_campaign(
        get_system(name), analysis,
        profile.dynamic_points if points is None else points,
        campaign=CampaignConfig(seed=seed, **knobs), config=config,
        baseline=baseline, matcher=matcher_for_system(name),
        obs=Observability() if observed else None, on_outcome=on_outcome)


_OBSERVED = {}


def observed_digest(name, seed=0, config=None, **knobs):
    """The digest of the same campaign without reuse (cached; the plain
    seed-0 one is the session's traced reference)."""
    if seed == 0 and config is None and not knobs:
        return outcome_digest(reference(name, traced=True)[0].outcomes)
    key = (name, seed, repr(config), tuple(sorted(knobs.items())))
    if key not in _OBSERVED:
        result = run(name, seed, observed=True, config=config, **knobs)
        assert result.reused == 0
        _OBSERVED[key] = outcome_digest(result.outcomes)
    return _OBSERVED[key]


# ---------------------------------------------------------------------------
# the differential: reusing campaign == observed campaign (pinned)
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("seed", [0, 1, 2, 3])
@pytest.mark.parametrize("name", SYSTEMS)
def test_reuse_is_outcome_identical_to_running_every_suffix(name, seed):
    result = reference(name, seed=seed)
    assert outcome_digest(result.outcomes) == PINS[name][seed]
    if seed == 0:
        # the oracle live, where the session traces it anyway
        assert observed_digest(name) == PINS[name][0]
        assert result.reused == REUSED_AT_SEED_0[name]


@pytest.mark.parametrize("name", SYSTEMS)
def test_snapshot_forks_reuse_what_replay_does(name):
    # one child at a time: each is collected, its key filed, before the
    # next fork, so every fork inherits what replay's next run would see
    result = run(name, execution="snapshot")
    assert result.execution == "snapshot"
    assert result.reused == REUSED_AT_SEED_0[name]
    assert outcome_digest(result.outcomes) == PINS[name][0]


@functools.lru_cache(maxsize=None)
def _yarn_10x():
    """The yarn-10x benchmarks' world, points and baseline."""
    system = get_system("yarn", world_scale=10)
    _, analysis, profile, _ = prepared("yarn")
    return system, analysis, profile.dynamic_points[:12], build_baseline(system)


#: point key -> digest of that point's own run on the 10x world
_ALONE_10X = {}


def _yarn_10x_first_12_points(execution):
    # seed-profiled points on the 132-node world, hang extensions off.
    # Each reused point is held to its own run through run_one_injection,
    # which never reuses (an observed campaign would triple the cost of
    # this cell); both modes share those runs
    system, analysis, points, baseline = _yarn_10x()
    cfg = CampaignConfig(classify_timeouts=False, execution=execution)
    matcher = matcher_for_system("yarn")
    result = run_campaign(system, analysis, points, campaign=cfg,
                          baseline=baseline, matcher=matcher)
    assert result.execution == execution
    reused = [o for o in result.outcomes if o.reused_from is not None]
    assert len(reused) == result.reused == 7
    for outcome in reused:
        key = outcome.dpoint.key()
        if key not in _ALONE_10X:
            _ALONE_10X[key] = outcome_digest([run_one_injection(
                system, analysis, outcome.dpoint, baseline,
                campaign=cfg, matcher=matcher)])
        assert outcome_digest([outcome]) == _ALONE_10X[key]


def test_yarn_10x_first_12_points():
    _yarn_10x_first_12_points("replay")


def test_yarn_10x_first_12_points_in_snapshot_forks():
    _yarn_10x_first_12_points("snapshot")


def test_pool_workers_reuse_in_their_own_maps():
    result = run("yarn", workers=2)
    assert result.workers_realized == 2
    assert 0 < result.reused <= REUSED_AT_SEED_0["yarn"]
    assert outcome_digest(result.outcomes) == PINS["yarn"][0]


def test_snapshot_siblings_in_flight_share_nothing():
    result = run("yarn", execution="snapshot", workers=2)
    assert result.workers_realized == 2
    assert 0 < result.reused <= REUSED_AT_SEED_0["yarn"]
    assert outcome_digest(result.outcomes) == PINS["yarn"][0]


@pytest.mark.parametrize("name, knobs", [
    ("hdfs", {"random_fallback": True}),
    ("hdfs", {"wait": 3.0}),
    ("kube", {"wait": 3.0}),
], ids=["hdfs-random-fallback", "hdfs-wait-3", "kube-wait-3"])
def test_knobs_that_change_the_fire(name, knobs):
    result = run(name, **knobs)
    assert result.reused > 0
    assert outcome_digest(result.outcomes) == observed_digest(name, **knobs)


def _assert_reusing_lines_name_their_source(journal, result):
    reusing = [record for record in WriteAheadLog(journal).replay()[1:]
               if record["reused_from"] is not None]
    assert len(reusing) == result.reused == REUSED_AT_SEED_0["hdfs"]
    for record in reusing:
        # beside the outcome, naming another point, one that ran its suffix
        assert "reused_from" not in record["data"]
        assert result.outcomes[record["reused_from"]].reused_from is None


def test_journal_resume_from_a_torn_tail(tmp_path):
    journal = tmp_path / "hdfs.jsonl"
    first = run("hdfs", journal_path=journal)
    _assert_reusing_lines_name_their_source(journal, first)
    lines = journal.read_text().splitlines(keepends=True)
    # the identity line, five outcomes, then half of the sixth
    journal.write_text("".join(lines[:6]) + lines[6][:40])
    resumed = run("hdfs", journal_path=journal)
    assert resumed.resumed == 5
    assert resumed.reused == REUSED_AT_SEED_0["hdfs"]
    assert outcome_digest(resumed.outcomes) == PINS["hdfs"][0]


class _Cut(Exception):
    """What a cut campaign's ``on_outcome`` raises."""


def cut_and_resume(name, journal, fraction, seed=0, **knobs):
    """``name``'s campaign killed once ``fraction`` of its points are
    journaled, then resumed from that journal."""
    n = len(prepared(name, seed=seed)[2].dynamic_points)
    seen = []

    def cut(index, outcome):
        seen.append(index)
        if len(seen) == int(n * fraction):
            raise _Cut

    with pytest.raises(_Cut):
        run(name, seed, journal_path=journal, on_outcome=cut, **knobs)
    resumed = run(name, seed, journal_path=journal, **knobs)
    assert resumed.resumed == int(n * fraction)
    return resumed


@pytest.mark.parametrize("execution", ["replay", "snapshot"])
@pytest.mark.parametrize("name", ["yarn", "hbase"])
def test_a_campaign_cut_at_half_reports_the_unbroken_one(tmp_path, name,
                                                         execution):
    resumed = cut_and_resume(name, tmp_path / "j.jsonl", 0.5,
                             execution=execution)
    assert resumed.reused == REUSED_AT_SEED_0[name]
    assert outcome_digest(resumed.outcomes) == PINS[name][0]
    if execution == "replay":
        # restored keys are filed again: the points after the cut reuse
        # the very suffixes the unbroken campaign's did
        assert ([o.reused_from for o in resumed.outcomes]
                == [o.reused_from for o in reference(name).outcomes])


def test_a_1_20_0_journal_restores_reuse_and_files_no_key(tmp_path):
    journal = tmp_path / "hdfs.jsonl"
    first = run("hdfs", journal_path=journal)
    meta, *records = WriteAheadLog(journal).replay()
    # 1.20.0 wrote no ``suffix``, and ``reused_from`` only when set
    old = [{k: v for k, v in record.items()
            if k != "suffix" and not (k == "reused_from" and v is None)}
           for record in records[:8]]
    journal.write_bytes(b"".join(encode_frame(r) for r in [meta, *old]))
    resumed = run("hdfs", journal_path=journal)
    assert resumed.resumed == 8
    assert outcome_digest(resumed.outcomes) == PINS["hdfs"][0]
    assert ([o.reused_from for o in resumed.outcomes[:8]]
            == [o.reused_from for o in first.outcomes[:8]])
    assert resumed.outcomes[7].reused_from == 6
    # no key was filed: point 8, which took point 6's suffix unbroken,
    # runs it again
    assert all(o.suffix is None for o in resumed.outcomes[:8])
    assert first.outcomes[8].reused_from == 6
    assert resumed.outcomes[8].reused_from is None
    assert resumed.reused == REUSED_AT_SEED_0["hdfs"] - 1


def test_a_snapshot_journal_names_the_fork_it_reused(tmp_path):
    journal = tmp_path / "hdfs.jsonl"
    result = run("hdfs", journal_path=journal, execution="snapshot")
    _assert_reusing_lines_name_their_source(journal, result)
    assert outcome_digest(result.outcomes) == PINS["hdfs"][0]


# ---------------------------------------------------------------------------
# visible: summary, CLI block, observed campaigns
# ---------------------------------------------------------------------------
def test_an_observed_campaign_reuses_nothing_and_says_so():
    observed, _ = reference("hdfs", traced=True)
    assert observed.reused == 0
    assert outcome_digest(observed.outcomes) == PINS["hdfs"][0]
    summary = reference("hdfs").summary()
    assert summary["reused"] == REUSED_AT_SEED_0["hdfs"]
    assert summary["digest"] == PINS["hdfs"][0]
    assert "5 of 16 suffixes reused" in format_summary("campaign hdfs", summary)


# ---------------------------------------------------------------------------
# what the key must hold: seeded mistakes
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_a_key_without_the_target_host_is_caught(seed, monkeypatch):
    def no_target(dpoint, injection, ordinal):
        key = suffix_key(dpoint, injection, ordinal)
        return key[:2] + key[3:] if key[0] == "fire" else key

    monkeypatch.setattr(campaign_mod, "suffix_key", no_target)
    assert outcome_digest(run("hbase", seed).outcomes) != PINS["hbase"][seed]


def test_a_key_blind_to_a_nanosecond_and_a_statement_is_caught(monkeypatch):
    # yarn seed 1 holds two shutdowns of one target 1 ns apart, fired by
    # points 39 and 40 from different statements (DESIGN.md "Suffix
    # reuse").  A key that rounds the fire time to the microsecond *and*
    # drops a shutdown's static tokens and the event ordinal merges them
    # and loses YARN-9238.  Each of the three alone is caught nowhere on
    # yarn and hbase seeds 0-3, hdfs 0 or kube 0: the exact time, the
    # tokens and the ordinal each cover for the others there.
    def coarse(dpoint, injection, ordinal):
        if injection is None:
            return suffix_key(dpoint, None, ordinal)
        return ("fire", dpoint.scale, injection.target_host, injection.kind,
                round(injection.time, 6))

    assert "YARN-9238" in reference("yarn", seed=1).detected_bugs()
    monkeypatch.setattr(campaign_mod, "suffix_key", coarse)
    merged = run("yarn", 1)
    assert outcome_digest(merged.outcomes) != PINS["yarn"][1]
    assert "YARN-9238" not in merged.detected_bugs()


# ---------------------------------------------------------------------------
# scoped to one campaign
# ---------------------------------------------------------------------------
def test_run_one_injection_after_a_campaign_reuses_nothing():
    reference("hbase")
    _, analysis, profile, baseline = prepared("hbase", HBASE_PATCHED)
    (point,) = [p for p in profile.dynamic_points
                if "on_report_for_duty" in p.point.enclosing
                and p.point.field_name == "online_servers" and p.point.op == "write"]
    outcome = run_one_injection(
        get_system("hbase"), analysis, point, baseline, config=HBASE_PATCHED,
        campaign=CampaignConfig(classify_timeouts=False),
        matcher=matcher_for_system("hbase"))
    assert outcome.reused_from is None
    assert "HBASE-22041" not in outcome.matched_bugs
    assert not outcome.verdict.hang


def test_a_second_campaign_under_a_patched_config_starts_empty():
    assert reference("hbase").reused == REUSED_AT_SEED_0["hbase"]
    patched = run("hbase", config=HBASE_PATCHED)
    assert patched.reused > 0
    assert (outcome_digest(patched.outcomes)
            == observed_digest("hbase", config=HBASE_PATCHED))
    # every reused outcome names a point of its own campaign that ran
    for outcome in patched.outcomes:
        if outcome.reused_from is not None:
            assert patched.outcomes[outcome.reused_from].reused_from is None


# ---------------------------------------------------------------------------
# the cut holds wherever the fire lands
# ---------------------------------------------------------------------------
def test_a_stop_inside_run_holds_for_every_later_run():
    loop, fired = SimLoop(), []

    def cut():
        fired.append("cut")
        loop.stop()

    loop.schedule(1.0, cut)
    loop.schedule(2.0, lambda: fired.append("later"))
    loop.run(until=10.0)
    loop.run(until=20.0)
    assert fired == ["cut"] and loop.now == 1.0 and loop.events_processed == 1


def test_a_stop_inside_a_pump_ends_the_pump_and_the_run():
    loop, fired = SimLoop(), []

    def waiting_handler():
        fired.append("handler")
        loop.pump(5.0)
        fired.append("resumed")

    def cut():
        fired.append("cut")
        loop.stop()

    loop.schedule(1.0, waiting_handler)
    loop.schedule(2.0, cut)
    loop.schedule(3.0, lambda: fired.append("pumped"))
    loop.schedule(8.0, lambda: fired.append("later"))
    loop.run(until=10.0)
    # the handler that pumped runs on to its end, at the cut's instant
    assert fired == ["handler", "cut", "resumed"] and loop.now == 2.0


def test_a_stop_before_the_loop_starts_holds():
    loop, fired = SimLoop(), []
    loop.schedule(0.0, lambda: fired.append("first"))
    loop.stop()
    loop.run(until=10.0)
    loop.pump(1.0)
    assert fired == [] and loop.now == 0.0 and loop.events_processed == 0


def _record_cuts(monkeypatch):
    """Per campaign run, in order: ``(events dispatched before the cut,
    events dispatched after it)``, or None for a run nobody cut."""
    at_stop, runs = {}, []
    stop, run_workload = SimLoop.stop, campaign_mod.run_workload

    def recorded_stop(loop):
        at_stop.setdefault(id(loop), loop.events_processed)
        stop(loop)

    def recorded_run(*args, **kwargs):
        report = run_workload(*args, **kwargs)
        loop = report.cluster.loop
        before = at_stop.pop(id(loop), None)
        runs.append(None if before is None
                    else (before, loop.events_processed - before))
        return report

    monkeypatch.setattr(SimLoop, "stop", recorded_stop)
    monkeypatch.setattr(campaign_mod, "run_workload", recorded_run)
    return runs


def test_a_hit_inside_the_run_dispatches_nothing_after_its_fire(monkeypatch):
    runs = _record_cuts(monkeypatch)
    result = run("hdfs")
    cuts = [cut for cut in runs if cut is not None]
    assert len(cuts) == result.reused == REUSED_AT_SEED_0["hdfs"]
    assert all(before > 0 and after == 0 for before, after in cuts)


def test_a_hit_before_the_loop_starts_dispatches_nothing(monkeypatch):
    # cassandra has a point that crashes a node from inside start_all()
    _, _, profile, _ = prepared("cassandra")
    (crash,) = [p for p, o in zip(profile.dynamic_points,
                                  reference("cassandra").outcomes)
                if o.injection.kind == "crash"]
    runs = _record_cuts(monkeypatch)
    result = run("cassandra", points=[crash, crash])
    assert runs == [None, (0, 0)]  # cut before the loop dispatched an event
    assert result.outcomes[1].reused_from == 0
    assert (outcome_digest(result.outcomes[1:])
            == outcome_digest(result.outcomes[:1]))


def test_a_fire_that_kills_its_own_handler_gets_no_key(monkeypatch):
    crash_rpc = ControlCenter.crash_rpc

    def fatal(self, values, executing):
        crash_rpc(self, values, executing)
        raise NodeCrashedError(executing)

    _, _, profile, _ = prepared("hdfs")
    crashes = [p for p, o in zip(profile.dynamic_points, reference("hdfs").outcomes)
               if o.injection is not None and o.injection.kind == "crash"]
    assert crashes
    monkeypatch.setattr(ControlCenter, "crash_rpc", fatal)
    result = run("hdfs", points=crashes + crashes)
    assert result.reused == 0
    assert all(o.fired for o in result.outcomes)


# ---------------------------------------------------------------------------
# a run's world is freed on that run's clock
# ---------------------------------------------------------------------------
def _live_clusters():
    return sum(isinstance(o, Cluster) for o in gc.get_objects())


def test_every_replayed_run_frees_its_world_when_it_returns():
    # a world is reference cycles only the collector frees; left to its
    # thresholds, one full pass freed several runs' worlds at once, on
    # whichever point crossed the threshold — often a 20 ms reused one
    _, analysis, profile, baseline = prepared("hdfs")
    gc.collect()
    before = _live_clusters()
    seen = []
    result = run_campaign(
        get_system("hdfs"), analysis, profile.dynamic_points,
        baseline=baseline, matcher=matcher_for_system("hdfs"),
        on_outcome=lambda index, outcome: seen.append(_live_clusters()))
    assert result.reused == REUSED_AT_SEED_0["hdfs"]
    assert seen == [before] * len(profile.dynamic_points)


def test_the_collector_is_left_as_the_host_set_it():
    run("cassandra")
    assert gc.isenabled()
    gc.disable()
    try:
        result = run("cassandra")
        assert not gc.isenabled()
    finally:
        gc.enable()
    assert outcome_digest(result.outcomes) == PINS["cassandra"][0]


@pytest.mark.parametrize("name", ["hdfs", "yarn"])
def test_no_run_of_the_pipeline_starts_beside_a_stale_world(monkeypatch, name):
    # every run -- phase 1's, the profiler's, the baseline's, the
    # campaign's -- frees its world before the next one is built: none
    # may wait, promoted, for a full collection that no run pays for
    gc.collect()
    before = _live_clusters()
    seen = []
    drive = systems_base._run_workload

    def counted(*args, **kwargs):
        seen.append(_live_clusters())
        return drive(*args, **kwargs)

    monkeypatch.setattr(systems_base, "_run_workload", counted)
    system = get_system(name)
    analysis = analyze_system(system)
    profile = profile_system(system, analysis)
    result = run_campaign(
        system, analysis, profile.dynamic_points,
        baseline=build_baseline(system), matcher=matcher_for_system(name))
    assert outcome_digest(result.outcomes) == PINS[name][0]
    assert len(seen) > len(profile.dynamic_points) + 5
    assert seen == [before] * len(seen)


def test_phase_1_and_the_baseline_leave_the_collector_as_the_host_set_it():
    system, analysis, _, baseline = prepared("cassandra")
    gc.disable()
    try:
        assert analyze_system(system).totals() == analysis.totals()
        assert not gc.isenabled()
        assert build_baseline(system) == baseline
        assert not gc.isenabled()
    finally:
        gc.enable()
    assert build_baseline(system) == baseline
    assert gc.isenabled()


# ---------------------------------------------------------------------------
# CI's suffix-reuse step
# ---------------------------------------------------------------------------
def main(seeds=range(8)):
    print("system, seed, points, reused, snapshot reused, resumed reused, "
          "equal")
    failed = False
    with tempfile.TemporaryDirectory() as tmp:
        for name in SYSTEMS:
            for seed in seeds:
                reusing = run(name, seed)
                forked = run(name, seed, execution="snapshot")
                # the replay campaign cut at half its points, then resumed
                resumed = cut_and_resume(
                    name, Path(tmp, f"{name}-{seed}.jsonl"), 0.5, seed)
                same = ({outcome_digest(r.outcomes)
                         for r in (reusing, forked, resumed)}
                        == {observed_digest(name, seed)}
                        and resumed.reused == reusing.reused)
                print(f"{name}, {seed}, {len(reusing.outcomes)}, "
                      f"{reusing.reused}, {forked.reused}, {resumed.reused}, "
                      f"{'yes' if same else 'NO'}", flush=True)
                failed |= not same
    return int(failed)


if __name__ == "__main__":
    sys.exit(main())
