"""The side campaigns — Table 7's random baseline, Table 9's IO baseline,
the multi-crash pairs — as plan entries on the one executor.

``tests/data/side_campaign_pins.json`` holds each run's projection
(fired flags, the last fault's target and action, verdict kinds, matched
bugs, simulated duration) as the campaigns' own run loops produced it,
before they became plans: random injection on zookeeper and hdfs (6 runs
each), IO injection on hdfs (both phases), multi-crash on cassandra (6
pairs).  The plans are held to it, and every cheaper way to run a plan —
a pool, snapshot mode, a resumed journal — to the plain run's digest.
"""

import json
from pathlib import Path

import pytest

from repro.bugs import matcher_for_system
from repro.core.baselines import (
    discounted,
    find_io_points,
    profile_io_points,
    run_io_injection,
    run_random_injection,
)
from repro.core.extensions import CrashPair, run_multi_crash_campaign
from repro.core.injection import CampaignConfig, outcome_digest
from repro.systems import get_system
from tests.conftest import prepared

PINS = json.loads(
    (Path(__file__).parent / "data" / "side_campaign_pins.json").read_text())

PAPER_SYSTEMS = ["yarn", "hdfs", "hbase", "zookeeper", "cassandra"]


def project(outcome, fired, **extra):
    """One run as the pin file records it."""
    injection = outcome.injection
    return {
        **extra,
        "fired": fired,
        "target": injection.target_host if injection else "",
        "action": injection.kind if injection else "",
        "verdict": outcome.verdict.kinds(),
        "bugs": outcome.matched_bugs,
        "duration": outcome.duration,
    }


def random_campaign(name, **knobs):
    return run_random_injection(
        get_system(name), runs=6, matcher=matcher_for_system(name),
        campaign=CampaignConfig(**knobs))


def io_campaign(name, **knobs):
    system, analysis, _, _ = prepared(name)
    return run_io_injection(
        system, profile_io_points(system, find_io_points(analysis)),
        matcher=matcher_for_system(name), campaign=CampaignConfig(**knobs))


@pytest.mark.parametrize("name", ["zookeeper", "hdfs"])
def test_random_injection_holds_its_pin(name):
    result = random_campaign(name)
    assert [project(o, [o.fired], discounted=discounted(o)) for o in result.outcomes] \
        == PINS["random"][name]
    assert result.sim_seconds == sum(o["duration"] for o in PINS["random"][name])


def test_io_injection_holds_its_pin():
    result = io_campaign("hdfs")
    got = [project(o, [o.fired], entry=[o.dpoint.dpoint.point.module,
                             o.dpoint.dpoint.point.lineno,
                             o.dpoint.dpoint.point.method,
                             list(o.dpoint.dpoint.stack), o.dpoint.phase])
           for o in result.outcomes]
    assert got == PINS["io"]["hdfs"]


def test_multi_crash_holds_its_pin():
    system, analysis, profile, baseline = prepared("cassandra")
    result = run_multi_crash_campaign(
        system, analysis, profile.dynamic_points, baseline=baseline,
        matcher=matcher_for_system("cassandra"), max_pairs=6)
    got = [project(o, [o.fired, o.diagnosis.hits == 2],
                   entry=[o.dpoint.first.describe(), o.dpoint.second.describe()],
                   scales=[o.dpoint.first.scale, o.dpoint.second.scale])
           for o in result.outcomes]
    assert got == PINS["multi"]["cassandra"]


@pytest.fixture(scope="module")
def hdfs_pairs():
    """Every ordered cross-method pair of hdfs's 16 points, run."""
    system, analysis, profile, baseline = prepared("hdfs")
    return run_multi_crash_campaign(system, analysis, profile.dynamic_points,
                                    baseline=baseline, max_pairs=10 ** 6)


@pytest.mark.parametrize("which, fires", [("first", 57), ("second", 52)])
def test_a_pair_runs_at_the_larger_of_its_scales(hdfs_pairs, which, fires):
    """hdfs profiles 4 of its points at scale 2: of the 57 pairs that put
    one of them first, all fire it (28 did at scale 1); of the 57 that put
    one second, 52 fire it (26 did at scale 1)."""
    runs = [o for o in hdfs_pairs.outcomes
            if getattr(o.dpoint, which).scale == 2]
    assert len(runs) == 57
    assert {o.diagnosis.scale for o in runs} == {2}
    fired = [o.fired if which == "first" else o.diagnosis.hits == 2
             for o in runs]
    assert sum(fired) == fires


def test_a_pair_fires_its_second_only_after_its_first(hdfs_pairs):
    assert len(hdfs_pairs.outcomes) == 230
    assert all(isinstance(o.dpoint, CrashPair) for o in hdfs_pairs.outcomes)
    assert all(o.fired for o in hdfs_pairs.outcomes if o.diagnosis.hits)


@pytest.mark.parametrize("name", PAPER_SYSTEMS)
def test_every_io_run_fires(name):
    result = io_campaign(name)
    assert result.outcomes
    assert [o.dpoint.describe() for o in result.outcomes if not o.fired] == []
    assert all(o.injection is not None for o in result.outcomes)


# ---------------------------------------------------------------------------
# one executor: journal, pool and snapshot lanes hold the plain run
# ---------------------------------------------------------------------------
CAMPAIGNS = {"random": (random_campaign, "zookeeper"),
             "io": (io_campaign, "hdfs")}


@pytest.mark.parametrize("kind", sorted(CAMPAIGNS))
def test_a_side_campaign_cut_at_half_resumes_to_the_unbroken_one(tmp_path, kind):
    run, name = CAMPAIGNS[kind]
    unbroken = outcome_digest(run(name).outcomes)
    journal = tmp_path / "side.jsonl"
    first = run(name, journal_path=journal)
    assert outcome_digest(first.outcomes) == unbroken
    # the identity line and the first half of the points: a kill there
    lines = journal.read_text().splitlines(keepends=True)
    half = len(first.outcomes) // 2
    journal.write_text("".join(lines[:1 + half]))
    resumed = run(name, journal_path=journal)
    assert resumed.resumed == half
    assert outcome_digest(resumed.outcomes) == unbroken


@pytest.mark.parametrize("knobs", [{"workers": 2}, {"execution": "snapshot"}],
                         ids=["workers=2", "snapshot"])
@pytest.mark.parametrize("kind", sorted(CAMPAIGNS))
def test_a_side_campaign_is_lane_independent(kind, knobs):
    run, name = CAMPAIGNS[kind]
    unbroken = outcome_digest(run(name).outcomes)
    result = run(name, **knobs)
    assert outcome_digest(result.outcomes) == unbroken
    if "workers" in knobs:
        assert result.workers_realized == 2
    else:
        # no entry of a side campaign files a suffix: each one replays
        assert result.snapshot_stats["fallback_points"] == len(result.outcomes)
        assert result.snapshot_stats["recording_runs"] == 0
        assert result.reused == 0
